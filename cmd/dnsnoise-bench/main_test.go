package main

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyArgs sizes every scenario for a run of a second or two.
var tinyArgs = []string{
	"-queries", "2000", "-fleet-events", "500",
	"-cache-events", "4000", "-cache-capacities", "512,2048",
	"-serve-clients", "2", "-serve-duration", "100ms",
}

// positive checks that each key of the report section is a number > 0.
func positive(section string, keys ...string) func(*testing.T, map[string]any) {
	return func(t *testing.T, rep map[string]any) {
		sec, ok := rep[section].(map[string]any)
		if !ok {
			t.Fatalf("report has no %q section", section)
		}
		for _, k := range keys {
			if x, _ := sec[k].(float64); x <= 0 {
				t.Errorf("%s.%s = %v, want > 0", section, k, sec[k])
			}
		}
	}
}

// list returns the report's key as a non-empty JSON array of objects.
func list(t *testing.T, rep map[string]any, key string) []map[string]any {
	t.Helper()
	raw, _ := rep[key].([]any)
	if len(raw) == 0 {
		t.Fatalf("report has no %s entries", key)
	}
	out := make([]map[string]any, len(raw))
	for i, x := range raw {
		out[i], _ = x.(map[string]any)
	}
	return out
}

// TestScenarioReports runs every table entry alone through run and checks
// the report fields CI asserts. Gate outcomes depend on host timing, so a
// gate failure is tolerated; any other error fails the test.
func TestScenarioReports(t *testing.T) {
	// testing.Benchmark honours -test.benchtime; a fixed count keeps the
	// b.N-driven scenarios short.
	old := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "100x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = flag.Set("test.benchtime", old) })

	overhead := func(section string) func(*testing.T, map[string]any) {
		return positive(section, "plain_ns_per_op", "instrumented_ns_per_op", "pairs", "rounds_per_pair")
	}
	checks := map[string]func(*testing.T, map[string]any){
		"sequential": positive("sequential", "ns_per_op", "iterations"),
		"parallel":   positive("parallel", "ns_per_op", "iterations"),
		"alloc":      positive("alloc", "hit_ops", "miss_ops", "miss_allocs_per_op"),
		"telemetry":  overhead("telemetry_overhead"),
		"qlog":       overhead("qlog_overhead"),
		"miner":      overhead("miner_overhead"),
		"fleet":      overhead("fleet_overhead"),
		"tsdb":       overhead("tsdb_overhead"),
		"cache": func(t *testing.T, rep map[string]any) {
			cells := list(t, rep, "cache_capacities")
			if len(cells) != 2 {
				t.Fatalf("%d cache cells, want 2", len(cells))
			}
			for i, c := range cells {
				if want := []float64{512, 2048}[i]; c["capacity"] != want {
					t.Errorf("cell %d capacity %v, want %v", i, c["capacity"], want)
				}
				if _, ok := c["hit_allocs_per_op"]; !ok {
					t.Errorf("cell %d has no hit_allocs_per_op: %v", i, c)
				}
				if x, _ := c["ops_per_sec"].(float64); x <= 0 {
					t.Errorf("cell %d ops_per_sec %v, want > 0", i, c["ops_per_sec"])
				}
			}
		},
		"sources": func(t *testing.T, rep map[string]any) {
			extra := list(t, rep, "extra")
			if len(extra) != 3 {
				t.Fatalf("%d source results, want 3", len(extra))
			}
			for _, r := range extra {
				if x, _ := r["ns_per_op"].(float64); x <= 0 {
					t.Errorf("%v ns_per_op %v, want > 0", r["name"], r["ns_per_op"])
				}
			}
		},
		"serve": func(t *testing.T, rep map[string]any) {
			for _, c := range list(t, rep, "serve_throughput") {
				if x, _ := c["qps"].(float64); x <= 0 {
					t.Errorf("serve cell %v: qps %v, want > 0", c, c["qps"])
				}
			}
			positive("serve_packet_alloc", "packets")(t, rep)
			positive("serve_packet_alloc_scored", "packets")(t, rep)
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			check, ok := checks[sc.name]
			if !ok {
				t.Fatalf("no report check for scenario %q", sc.name)
			}
			out := filepath.Join(t.TempDir(), "bench.json")
			err := run(append([]string{"-only", sc.name, "-out", out}, tinyArgs...))
			if err != nil && !errors.Is(err, errGate) {
				t.Fatalf("run: %v", err)
			}
			if err != nil {
				t.Logf("gate (tolerated): %v", err)
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var rep map[string]any
			if err := json.Unmarshal(data, &rep); err != nil {
				t.Fatal(err)
			}
			spans, _ := rep["spans"].([]any)
			if len(spans) != 1 || spans[0].(map[string]any)["name"] != sc.span {
				t.Errorf("spans = %v, want one root %q", spans, sc.span)
			}
			check(t, rep)
		})
	}
}

func TestOverheadGate(t *testing.T) {
	for _, tc := range []struct {
		name            string
		overhead, noise float64
		fail            bool
	}{
		{"pass", 1.5, 5, false},
		{"inconclusive", 5, 2.5, false}, // noise floor wider than the gate
		{"fail at noise == max", 5, 2, true},
		{"fail", 5, 0.5, true},
	} {
		err := checkOverheadGate("test", overheadResult{OverheadPct: tc.overhead, NoisePct: tc.noise}, 2)
		if got := errors.Is(err, errGate); got != tc.fail || (err != nil && !got) {
			t.Errorf("%s: err = %v, want fail %v", tc.name, err, tc.fail)
		}
	}
}

func TestAllocGates(t *testing.T) {
	if err := checkPacketAllocGate("test", servePacketAlloc{AllocsPerOp: 0.4}, 0); err != nil {
		t.Errorf("0.4 packet allocs rounds to 0 and should pass: %v", err)
	}
	if err := checkPacketAllocGate("test", servePacketAlloc{AllocsPerOp: 0.6}, 0); !errors.Is(err, errGate) {
		t.Errorf("0.6 packet allocs should fail the gate, got %v", err)
	}
	cells := []cacheCell{{Capacity: 512}, {Capacity: 2048, HitAllocsPerOp: 1}}
	if err := checkCacheAllocGate(cells[:1], 0); err != nil {
		t.Errorf("0 hit allocs should pass: %v", err)
	}
	if err := checkCacheAllocGate(cells, 0); !errors.Is(err, errGate) {
		t.Errorf("a cell with 1 hit alloc should fail the gate, got %v", err)
	}
	if err := checkHitAllocGate(allocResult{HitAllocsPerOp: 1}, 0); !errors.Is(err, errGate) {
		t.Errorf("1 resolver hit alloc should fail the gate, got %v", err)
	}
}

func TestServeGateNeedsReplies(t *testing.T) {
	rep := &report{
		ServeThroughput:        []serveResult{{Listeners: 1, Batch: 1, Sent: 10, Received: 10}},
		ServePacketAlloc:       &servePacketAlloc{},
		ServePacketAllocScored: &servePacketAlloc{},
	}
	if err := checkServeGate(rep, 0); err != nil {
		t.Fatalf("served cell should pass: %v", err)
	}
	rep.ServeThroughput = append(rep.ServeThroughput, serveResult{Listeners: 1, Batch: 32, Sent: 10})
	if err := checkServeGate(rep, 0); !errors.Is(err, errGate) {
		t.Errorf("a cell with no replies should fail the gate, got %v", err)
	}
}

// TestPairedOverhead drives the paired method with synthetic readings: a
// constant 10% instrumented cost and a noiseless control.
func TestPairedOverhead(t *testing.T) {
	var order []string
	reading := func(side string, ns float64) func() (float64, error) {
		return func() (float64, error) {
			order = append(order, side)
			return ns, nil
		}
	}
	ov, err := pairedOverhead(3, 2, 7, func(_, control bool) (func() (float64, error), func() (float64, error), error) {
		instr := 110.0
		if control {
			instr = 100
		}
		return reading("p", 100), reading("i", instr), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ov.OverheadPct < 9.99 || ov.OverheadPct > 10.01 || ov.NoisePct != 0 {
		t.Errorf("overhead %.3f%% noise %.3f%%, want 10%% and 0%%", ov.OverheadPct, ov.NoisePct)
	}
	if ov.PlainNsPerOp != 100 || ov.InstrumentedNsPerOp != 110 || ov.Pairs != 3 || ov.RoundsPerPair != 2 || ov.QueriesPerPass != 7 {
		t.Errorf("result %+v", ov)
	}
	// The side that runs first alternates every round, and every pair.
	if got := strings.Join(order, ""); got != "piip"+"ippi"+"piip"+"ippi" {
		t.Errorf("run order %s", got)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "serve", "-serve-duration", "0"},
		{"-only", "serve", "-serve-duration", "-1s"},
		{"-only", "fleet", "-fleet-events", "-5"},
		{"-only", "fleet", "-fleet-events", "0"},
	} {
		err := run(append(args, "-out", filepath.Join(t.TempDir(), "x.json")))
		if err == nil || errors.Is(err, errGate) {
			t.Errorf("%v: err = %v, want a flag error", args, err)
		}
	}
}

func TestRunRejectsUnknownScenario(t *testing.T) {
	err := run([]string{"-only", "nope", "-out", filepath.Join(t.TempDir(), "x.json")})
	if err == nil {
		t.Fatal("unknown -only name should fail")
	}
	for _, sc := range scenarios {
		if !strings.Contains(err.Error(), sc.name) {
			t.Errorf("error %q does not list scenario %q", err, sc.name)
		}
	}
}
