// Command perfbench is dnsnoise's fixed-work benchmark. It runs one
// workload per invocation — a live simulated day (day-live), a parallel
// replay of that day with intra-day re-scoring (stream-replay), or an
// open-loop UDP load on the live-scored front door (serve) — checks the
// program's outputs, and prints one JSON result line last:
//
//	bash perfbench/run.sh --workload day-live --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured on
// the program's own objects. With --trace 1 it carries the per-layer
// ledger from a run whose public seams are wrapped in timers, plus the
// tracing overhead against untraced passes of the same run. See
// README.md for the workloads, the layer map and the measured spreads.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better,omitempty"`
}

// endToEnd are reported by every workload; README.md maps each to the
// quantity it measures per workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"max_rss_mb", "MB", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"p50_ms", "ms", "lower"},
	{"tail_ms", "ms", "lower"},
}

// perLayer are reported by every workload's traced run; a layer that a
// workload bypasses reads 0 there.
var perLayer = []metricSpec{
	{"ingest.next_ns", "ns", "lower"},
	{"ingest.prepare_ms", "ms", "lower"},
	{"ingest.events", "count", "higher"},
	{"ingest.pauses", "count", "lower"},
	{"resolver.self_ns", "ns", "lower"},
	{"resolver.hit_ratio", "ratio", "higher"},
	{"resolver.upstream_rts", "count", "lower"},
	{"resolver.upstream_errors", "count", "lower"},
	{"cache.evictions", "count", "lower"},
	{"cache.premature_evictions", "count", "lower"},
	{"cache.reclaims", "count", "higher"},
	{"authority.exchange_ns", "ns", "lower"},
	{"authority.handle_ns", "ns", "lower"},
	{"chrstat.records", "count", "lower"},
	{"chrstat.byname_ms", "ms", "lower"},
	{"pdns.observe_ns", "ns", "lower"},
	{"pdns.records", "count", "lower"},
	{"pdns.storage_bytes", "bytes", "lower"},
	{"core.intake_ns", "ns", "lower"},
	{"core.rescores", "count", "lower"},
	{"core.rescore_ms_sum", "ms", "lower"},
	{"core.endday_ms", "ms", "lower"},
	{"core.build_tree_ms", "ms", "lower"},
	{"core.mine_ms", "ms", "lower"},
	{"core.findings", "count", "higher"},
	{"core.drift_events", "count", "lower"},
	{"mlearn.predictions", "count", "lower"},
	{"mlearn.predict_ns", "ns", "lower"},
	{"udptransport.rx_packets", "count", "higher"},
	{"udptransport.tx_packets", "count", "higher"},
	{"udptransport.dropped", "count", "lower"},
	{"udptransport.truncated", "count", "lower"},
	{"udptransport.self_us", "us", "lower"},
	{"livescore.score_ns", "ns", "lower"},
	{"livescore.disposable_share", "ratio", "higher"},
	{"livescore.names_dropped", "ratio", "lower"},
	{"qlog.events", "count", "higher"},
	{"qlog.consume_ns", "ns", "lower"},
	{"loadgen.late_p99_us", "us", "lower"},
	{"loadgen.rtt_p50_us", "us", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.bytes_per_op", "bytes", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.ledger_gap_pct", "%", "lower"},
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root
	out      string // scratch directory for traces, spans and results
}

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]float64
	report    []string // human-readable lines, printed before the JSON
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

// fail records a failed output check.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.failed++
	r.note("CHECK FAILED: "+format, args...)
}

var workloads = map[string]func(config) (*result, error){
	"day-live":      func(c config) (*result, error) { return runDayWorkload(c, false) },
	"stream-replay": func(c config) (*result, error) { return runDayWorkload(c, true) },
	"serve":         runServeWorkload,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		cfg   config
		trace int
	)
	fl.StringVar(&cfg.workload, "workload", "", "day-live, stream-replay or serve")
	fl.Int64Var(&cfg.seed, "seed", 1, "workload seed: the namespace, traffic and query set derive from it")
	fl.Float64Var(&cfg.seconds, "seconds", 25, "how long the measured phase runs")
	fl.IntVar(&trace, "trace", 0, "1 runs the traced ledger pass and reports per-layer metrics")
	fl.StringVar(&cfg.root, "root", ".", "checkout root (for the source digest)")
	fl.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for traces, spans and result files")
	if err := fl.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want day-live, stream-replay or serve)", cfg.workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	cfg.trace = trace == 1
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	host := fingerprint(cfg.root)

	res, err := wl(cfg)
	if err != nil {
		return err
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(specs))
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, trace)
	for _, k := range sortedKeys(host) {
		fmt.Fprintf(stdout, "  host.%s: %s\n", k, host[k])
	}
	for _, line := range res.report {
		fmt.Fprintln(stdout, "  "+line)
	}
	for _, s := range specs {
		v, ok := res.metrics[s.Name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, s.Name)
		}
		metrics[s.Name] = value{v, s.Unit}
		fmt.Fprintf(stdout, "  %-28s %14.6g %s\n", s.Name, v, s.Unit)
	}
	errRate := float64(res.failed) / float64(res.attempted)
	fmt.Fprintf(stdout, "  %-28s %14.6g ratio (%d failed of %d attempted)\n", "error_rate", errRate, res.failed, res.attempted)

	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	record, err := json.MarshalIndent(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": trace,
		"host": host, "error_rate": errRate, "report": res.report, "result": json.RawMessage(line),
	}, "", "  ")
	if err != nil {
		return err
	}
	resPath := filepath.Join(cfg.out, fmt.Sprintf("result-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, trace))
	if err := os.WriteFile(resPath, record, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// fingerprint records the host and source the numbers came from.
func fingerprint(root string) map[string]string {
	fp := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":  cpuModel(),
		"source":     sourceDigest(root),
		"network":    "serve traffic crosses the loopback interface (127.0.0.1), not a NIC",
	}
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		fp["commit"] = c
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the checkout's Go sources and module files, so a
// result names the code it measured even where there is no git metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// spanPath is where a traced run writes its spans.
func spanPath(cfg config) string {
	return filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
}
