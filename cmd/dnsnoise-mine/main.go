// Command dnsnoise-mine runs the disposable zone miner over a query
// stream. The stream either replays a recorded trace (-trace, possibly
// several files and gzip-compressed) or is generated live in-process
// (-live) — both paths drive the same ingest pipeline through the
// simulated recursive DNS cluster, so mining a trace of a generation run
// prints byte-identical results to mining the live run itself. It trains
// the classifier on the namespace's ground-truth labels, executes
// Algorithm 1, and prints the ranked disposable zones with accuracy
// against ground truth.
//
// The -seed, sizing, -profile, -events, and -clients flags must match the
// dnsnoise-gen invocation that produced the trace, so the rebuilt
// authoritative namespace evolves through the same per-day states while
// answering the trace's names.
//
// Usage:
//
//	dnsnoise-mine -trace trace.jsonl -theta 0.9 -top 25
//	dnsnoise-mine -live -days 2 -theta 0.9
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/core"
	"dnsnoise/internal/ingest"
	"dnsnoise/internal/qlog"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/telemetry"
	"dnsnoise/internal/telemetry/alerts"
	"dnsnoise/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dnsnoise-mine:", err)
		os.Exit(1)
	}
}

// truthMatcher returns an O(labels) predicate over the ground-truth map.
func truthMatcher(labels map[string]bool) func(string) bool {
	disp := make(map[string]struct{}, len(labels))
	for zone, d := range labels {
		if d {
			disp[zone] = struct{}{}
		}
	}
	return func(name string) bool {
		for probe := name; probe != ""; {
			if _, ok := disp[probe]; ok {
				return true
			}
			dot := strings.IndexByte(probe, '.')
			if dot < 0 {
				break
			}
			probe = probe[dot+1:]
		}
		return false
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dnsnoise-mine", flag.ContinueOnError)
	var (
		tracePath = fs.String("trace", "", "input trace(s), comma-separated (JSONL from dnsnoise-gen, gzip sniffed; '-' for stdin)")
		live      = fs.Bool("live", false, "generate the query stream in-process instead of replaying a trace")
		profileNm = fs.String("profile", "december", "calibration profile: february, december, or dates (must match the generator)")
		days      = fs.Int("days", 1, "days to generate with -live (ignored for -profile dates)")
		events    = fs.Int("events", 200_000, "base events per day (must match the generator)")
		clients   = fs.Int("clients", 5000, "client population (must match the generator)")
		seed      = fs.Int64("seed", 1, "namespace seed (must match the generator)")
		ndZones   = fs.Int("zones", 900, "non-disposable zone count (must match)")
		dispZn    = fs.Int("disposable-zones", 398, "disposable zone count (must match)")
		maxHosts  = fs.Int("hosts-per-zone", 128, "host pool cap (must match)")
		servers   = fs.Int("servers", 4, "RDNS servers in the cluster")
		cacheSz   = fs.Int("cache", 1<<16, "per-server cache entries")
		theta     = fs.Float64("theta", 0.9, "classification threshold")
		top       = fs.Int("top", 25, "findings to print")
		parallel  = fs.Bool("parallel", false, "resolve through per-server resolver workers (one goroutine per simulated server)")
		explain   = fs.String("explain", "", "write one provenance record per classifier decision as JSON lines to this path (.gz compresses; with -window the records come from the streaming pass, stamped with window and hysteresis state)")
		verifyExp = fs.String("verify-explain", "", "verify an -explain file (replay every decision path) and exit")
		window    = fs.Duration("window", 0, "after the batch mine, replay the stream through the incremental miner, re-scoring every this much simulated time (0 disables the streaming pass)")
		hyster    = fs.Int("hysteresis", 2, "consecutive streaming windows required to flip a zone's verdict (with -window)")
		keepWin   = fs.Int("keep-windows", 0, "sliding horizon for the streaming pass: only the last N re-score windows back a zone's evidence, so stale zones decay and expire (0 = cumulative, matching the batch miner)")
	)
	var tcfg telemetry.CLIConfig
	tcfg.RegisterFlags(fs)
	var qcfg qlog.CLIConfig
	qcfg.RegisterFlags(fs)
	var acfg alerts.CLIConfig
	acfg.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *verifyExp != "" {
		return runVerifyExplain(*verifyExp, stdout)
	}
	if *events < 1 {
		return fmt.Errorf("-events must be >= 1 (got %d)", *events)
	}
	if *tracePath == "" && !*live {
		return fmt.Errorf("missing -trace (generate one with dnsnoise-gen, or pass -live to generate in-process)")
	}
	if *tracePath != "" && *live {
		return fmt.Errorf("-trace and -live are mutually exclusive")
	}
	if *keepWin < 0 {
		return fmt.Errorf("-keep-windows must be >= 0")
	}
	if *keepWin > 0 && *window == 0 {
		return fmt.Errorf("-keep-windows needs the streaming pass; pass -window too")
	}
	if *window > 0 {
		for _, p := range strings.Split(*tracePath, ",") {
			if p == "-" {
				return fmt.Errorf("-window needs to replay the stream a second time; stdin traces cannot be re-read")
			}
		}
	}

	sess, err := tcfg.Start("dnsnoise-mine", args)
	if err != nil {
		return err
	}
	defer sess.Close()
	qs, err := qcfg.Start(sess)
	if err != nil {
		return err
	}
	defer qs.Close()
	as, err := acfg.Start(sess, qs.Log())
	if err != nil {
		return err
	}
	// LIFO: the tsdb sweeper stops (mirroring its last alert transitions)
	// before the qlog session closes.
	defer as.Close()

	reg := workload.NewRegistry(workload.RegistryConfig{
		Seed:               *seed,
		NonDisposableZones: *ndZones,
		DisposableZones:    *dispZn,
		HostsPerZoneMax:    *maxHosts,
	})
	auth, err := reg.BuildAuthority(nil, nil)
	if err != nil {
		return fmt.Errorf("build authority: %w", err)
	}
	cluster, err := resolver.NewCluster(auth,
		resolver.WithServers(*servers), resolver.WithCacheSize(*cacheSz),
		resolver.WithTelemetry(sess.Registry),
		resolver.WithQueryLog(qs.Log()))
	if err != nil {
		return err
	}
	sess.StartProgress(clusterProgress(cluster))
	// The generator mirrors dnsnoise-gen's seeding (-seed + 2). Live mode
	// draws the stream from it; trace mode burns the same draws through
	// the ReplayProfiles day hook so the registry walks the recording's
	// per-day TTL states.
	gen := workload.NewGenerator(reg, workload.GeneratorConfig{
		Seed:             *seed + 2,
		Clients:          *clients,
		BaseEventsPerDay: *events,
	})

	var (
		src  ingest.QuerySource
		opts []ingest.Option
	)
	if *live {
		profiles, err := workload.SelectProfiles(*profileNm, *days)
		if err != nil {
			return err
		}
		src = ingest.NewGeneratorSource(gen, profiles...)
	} else {
		profileFor, err := workload.ProfileResolver(*profileNm)
		if err != nil {
			return err
		}
		src = ingest.NewTraceSource(strings.Split(*tracePath, ",")...)
		opts = append(opts, ingest.OnDayStart(ingest.ReplayProfiles(gen, profileFor)))
	}
	defer src.Close()

	var (
		collector *chrstat.Collector
		total     int
	)
	opts = append(opts,
		ingest.WithSingleWindow(),
		ingest.WithQueryLog(qs.Log()),
		ingest.WithMetrics(sess.Registry),
		ingest.WithTracer(sess.Tracer),
		ingest.WithProgress(sess.Logger),
		ingest.OnWindow(func(w ingest.Window) error {
			collector = w.Collector
			total = w.Queries
			return nil
		}),
	)
	if *parallel {
		opts = append(opts, ingest.WithParallel())
	}
	if err := ingest.NewRunner(cluster, opts...).Run(src); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if total == 0 {
		return fmt.Errorf("trace is empty")
	}
	st := cluster.Stats()
	fmt.Fprintf(stdout, "replayed %d events: %d cache hits (%.1f%%), %d upstream round trips, %d NXDOMAIN\n",
		total, st.CacheHits, 100*float64(st.CacheHits)/float64(st.Queries), st.UpstreamRTs, st.NXDomains)

	byName := collector.ByName()
	labels := reg.GroundTruth()
	trainSpan := sess.Tracer.Start("train")
	tree := core.BuildTree(byName, nil)
	examples := core.BuildTrainingSet(tree, byName, reg.TrainingLabels(401), core.TrainingConfig{})
	clf, err := core.TrainClassifier(examples, core.TrainingConfig{})
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	trainSpan.AddItems(int64(len(examples)))
	trainSpan.End()
	miner, err := core.NewMiner(clf, core.MinerConfig{Theta: *theta})
	if err != nil {
		return err
	}
	miner.SetMetrics(sess.Registry)
	var (
		ew         *core.ExplainWriter
		explainErr error
	)
	if *explain != "" && *window == 0 {
		// With -window the streaming pass owns the explain file instead,
		// stamping each record with its window and hysteresis state.
		ew, err = core.CreateExplain(*explain)
		if err != nil {
			return fmt.Errorf("explain: %w", err)
		}
		miner.SetExplain(func(rec core.ExplainRecord) {
			if err := ew.Record(rec); err != nil && explainErr == nil {
				explainErr = err
			}
		})
		defer ew.Close()
	}
	mineSpan := sess.Tracer.Start("mine")
	tree = core.BuildTree(byName, nil)
	findings, err := miner.Mine(tree, byName)
	if err != nil {
		return fmt.Errorf("mine: %w", err)
	}
	mineSpan.AddItems(int64(len(findings)))
	mineSpan.End()
	if ew != nil {
		if explainErr != nil {
			return fmt.Errorf("explain: %w", explainErr)
		}
		if err := ew.Close(); err != nil {
			return fmt.Errorf("explain: %w", err)
		}
		fmt.Fprintf(os.Stderr, "explain: wrote %d decision records to %s\n", ew.Count(), *explain)
	}

	rep := core.Summarize(findings, nil)
	fmt.Fprintf(stdout, "mined %d disposable zones under %d 2LDs covering %d names (%.1f periods/name)\n",
		rep.Zones, rep.E2LDs, rep.Names, rep.MeanPeriods)

	// Score findings against ground truth by their member names: a finding
	// is correct when the majority of its names fall under a
	// disposable-labeled zone.
	isDisp := truthMatcher(labels)
	var tp, fp int
	for _, f := range findings {
		hits := 0
		for _, name := range f.Names {
			if isDisp(name) {
				hits++
			}
		}
		if hits*2 >= len(f.Names) {
			tp++
		} else {
			fp++
		}
	}
	fmt.Fprintf(stdout, "finding-level ground truth: %d correct, %d spurious of %d findings\n\n", tp, fp, len(findings))

	fmt.Fprintf(stdout, "%-44s %5s %10s %7s\n", "zone", "depth", "confidence", "names")
	for i, f := range findings {
		if i >= *top {
			fmt.Fprintf(stdout, "... and %d more\n", len(findings)-*top)
			break
		}
		fmt.Fprintf(stdout, "%-44s %5d %10.3f %7d\n", f.Zone, f.Depth, f.Confidence, len(f.Names))
	}
	if *window > 0 {
		pass := &streamingPass{
			tracePath: *tracePath, live: *live, profileNm: *profileNm, days: *days,
			events: *events, clients: *clients, seed: *seed, ndZones: *ndZones,
			dispZn: *dispZn, maxHosts: *maxHosts, servers: *servers, cacheSz: *cacheSz,
			parallel: *parallel,
			clf:      clf, theta: *theta, window: *window, hysteresis: *hyster,
			keepWindows: *keepWin,
			explain:     *explain, batchFindings: findings,
		}
		if err := pass.run(stdout); err != nil {
			return err
		}
	}
	if err := qs.Close(); err != nil {
		return fmt.Errorf("qlog: %w", err)
	}
	return sess.Close()
}

// runVerifyExplain is the -verify-explain mode: load an explain file and
// replay every decision path against its recorded features.
func runVerifyExplain(path string, stdout io.Writer) error {
	recs, err := core.OpenExplain(path)
	if err != nil {
		return fmt.Errorf("verify-explain: %w", err)
	}
	if err := core.VerifyExplain(recs); err != nil {
		return fmt.Errorf("verify-explain: %w", err)
	}
	disposable := 0
	for _, rec := range recs {
		if rec.Disposable {
			disposable++
		}
	}
	fmt.Fprintf(stdout, "verified %d explain records (%d disposable): all decision paths replay\n",
		len(recs), disposable)
	return nil
}

// clusterProgress returns the per-tick attributes for the -progress
// line: cumulative queries, qps since the last tick, and the cache hit
// ratio so far. It runs on the progress goroutine only, so the
// last-tick state needs no locking.
func clusterProgress(cluster *resolver.Cluster) telemetry.ProgressFunc {
	var (
		lastQueries uint64
		lastElapsed time.Duration
	)
	return func(elapsed time.Duration) []slog.Attr {
		st := cluster.Stats()
		dq := st.Queries - lastQueries
		dt := (elapsed - lastElapsed).Seconds()
		lastQueries, lastElapsed = st.Queries, elapsed
		attrs := []slog.Attr{slog.Uint64("queries", st.Queries)}
		if dt > 0 {
			attrs = append(attrs, slog.Float64("qps", float64(dq)/dt))
		}
		if st.Queries > 0 {
			attrs = append(attrs, slog.Float64("chr", float64(st.CacheHits)/float64(st.Queries)))
		}
		return attrs
	}
}
