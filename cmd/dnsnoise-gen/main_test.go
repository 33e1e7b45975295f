package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dnsnoise/internal/traceio"
	"dnsnoise/internal/workload"
)

func TestRunGeneratesTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.jsonl")
	err := run([]string{
		"-out", out,
		"-events", "2000",
		"-zones", "40",
		"-disposable-zones", "20",
		"-hosts-per-zone", "12",
		"-clients", "50",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	// December profile scales 2000 base events by 2.3.
	if lines < 4000 {
		t.Errorf("trace has %d lines, want ~4600", lines)
	}
	if !strings.Contains(string(data[:200]), `"name"`) {
		t.Errorf("first line does not look like an event: %s", data[:200])
	}
}

func TestRunProfiles(t *testing.T) {
	for _, profile := range []string{"february", "december", "dates"} {
		t.Run(profile, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "trace.jsonl")
			err := run([]string{
				"-out", out, "-profile", profile,
				"-events", "200", "-zones", "20", "-disposable-zones", "10",
				"-hosts-per-zone", "8", "-clients", "10",
			})
			if err != nil {
				t.Fatalf("run(%s): %v", profile, err)
			}
		})
	}
}

func TestRunRejectsUnknownProfile(t *testing.T) {
	if err := run([]string{"-profile", "lunar", "-out", filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Error("unknown profile should fail")
	}
}

// TestRunRejectsNonPositiveEvents pins the flag check: 0 used to mean the
// 200,000 default and a negative count panicked in the generator.
func TestRunRejectsNonPositiveEvents(t *testing.T) {
	for _, n := range []string{"0", "-5"} {
		if err := run([]string{"-events", n, "-out", filepath.Join(t.TempDir(), "x")}); err == nil {
			t.Errorf("-events %s should fail", n)
		}
	}
}

func TestSelectProfilesDayFloor(t *testing.T) {
	ps, err := workload.SelectProfiles("december", 0)
	if err != nil || len(ps) != 1 {
		t.Errorf("days floor: %v %d", err, len(ps))
	}
	ps, err = workload.SelectProfiles("dates", 1)
	if err != nil || len(ps) != 6 {
		t.Errorf("dates: %v %d, want 6", err, len(ps))
	}
}

// TestRunGzipOut checks that a .gz out path produces a compressed trace
// that round-trips through the sniffing reader.
func TestRunGzipOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.jsonl.gz")
	err := run([]string{
		"-out", out, "-events", "200",
		"-zones", "20", "-disposable-zones", "10", "-hosts-per-zone", "8",
		"-clients", "10",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("output is not gzip (head % x)", data[:2])
	}
	r, done, err := traceio.OpenPath(out)
	if err != nil {
		t.Fatal(err)
	}
	defer done()
	n := 0
	for {
		if _, err := r.Next(); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatal(err)
		}
		n++
	}
	if n == 0 {
		t.Error("gzip trace decoded to zero events")
	}
}
