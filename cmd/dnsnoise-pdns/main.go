// Command dnsnoise-pdns builds a passive DNS (rpDNS) database from a query
// stream, reports its growth and composition, and — optionally — mines the
// stream and applies the Section VI-C wildcard-collapse mitigation to show
// the storage reduction. The stream either replays recorded traces
// (-trace, comma-separated, gzip sniffed) or is generated live in-process
// (-live), through the same ingest pipeline dnsnoise-mine uses.
//
// Usage:
//
//	dnsnoise-gen -out trace.jsonl -days 5
//	dnsnoise-pdns -trace trace.jsonl -collapse
//	dnsnoise-pdns -live -days 5 -collapse
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
	"dnsnoise/internal/pdns"
	"dnsnoise/internal/qlog"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/telemetry"
	"dnsnoise/internal/telemetry/alerts"
	"dnsnoise/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dnsnoise-pdns:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dnsnoise-pdns", flag.ContinueOnError)
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
		collapse  = fs.Bool("collapse", false, "mine the stream and apply the wildcard-collapse mitigation")
		theta     = fs.Float64("theta", 0.9, "mining threshold for -collapse")
		fpOut     = fs.String("fpdns", "", "also dump the full fpDNS tuple stream (JSONL) to this file")
		explain   = fs.String("explain", "", "with -collapse, write one provenance record per classifier decision as JSON lines to this path (.gz compresses)")
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
	if *events < 1 {
		return fmt.Errorf("-events must be >= 1 (got %d)", *events)
	}
	if *explain != "" && !*collapse {
		return fmt.Errorf("-explain requires -collapse (the mining pass produces the records)")
	}
	if *tracePath == "" && !*live {
		return fmt.Errorf("missing -trace (generate one with dnsnoise-gen, or pass -live to generate in-process)")
	}
	if *tracePath != "" && *live {
		return fmt.Errorf("-trace and -live are mutually exclusive")
	}

	sess, err := tcfg.Start("dnsnoise-pdns", args)
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

	store := pdns.NewStore()
	store.SetMetrics(sess.Registry)
	var fpWriter *pdns.FpWriter
	sinks := []ingest.ObservationSink{ingest.TapSink(store.Tap(), nil)}
	if *fpOut != "" {
		f, err := os.Create(*fpOut)
		if err != nil {
			return err
		}
		defer f.Close()
		fpWriter = pdns.NewFpWriter(f)
		sinks = append(sinks, ingest.TapSink(fpWriter.Tap(), nil))
	}

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
		ingest.WithSinks(sinks...),
		ingest.OnWindow(func(w ingest.Window) error {
			collector = w.Collector
			total = w.Queries
			return nil
		}),
	)
	if err := ingest.NewRunner(cluster, opts...).Run(src); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if total == 0 {
		return fmt.Errorf("trace is empty")
	}

	if fpWriter != nil {
		if err := fpWriter.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "fpDNS stream: %d tuples written to %s\n", fpWriter.Count(), *fpOut)
	}
	fmt.Fprintf(stdout, "pDNS database from %d events:\n", total)
	fmt.Fprintf(stdout, "  distinct resource records: %d (%.1f MB)\n",
		store.Len(), float64(store.StorageBytes())/1e6)
	disp := store.DisposableCount()
	fmt.Fprintf(stdout, "  disposable (ground truth): %d (%.1f%%)\n",
		disp, 100*float64(disp)/float64(store.Len()))
	fmt.Fprintln(stdout, "  new records per day:")
	for _, d := range store.Days() {
		fmt.Fprintf(stdout, "    %s  new=%-8d disposable=%-8d (%.1f%%)\n",
			d.Date.Format("2006-01-02"), d.New, d.Disposable,
			100*float64(d.Disposable)/float64(maxInt(d.New, 1)))
	}

	if !*collapse {
		if err := qs.Close(); err != nil {
			return fmt.Errorf("qlog: %w", err)
		}
		return sess.Close()
	}
	byName := collector.ByName()
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
	if *explain != "" {
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
	collapseSpan := sess.Tracer.Start("collapse")
	matcher := core.NewMatcher(findings)
	res := store.CollapseWildcards(matcher.Match)
	collapseSpan.AddItems(int64(res.Collapsed))
	collapseSpan.End()
	fmt.Fprintf(stdout, "\nwildcard collapse with %d mined zones:\n", len(matcher.Zones()))
	fmt.Fprintf(stdout, "  %d -> %d records; disposable population shrinks to %.2f%% (paper: 0.7%%)\n",
		res.Before, res.After, res.DisposableRatio()*100)
	fmt.Fprintf(stdout, "  %d records folded into %d wildcards; storage %.1f MB -> %.1f MB\n",
		res.Collapsed, res.Wildcards,
		float64(store.StorageBytes())/1e6, float64(res.BytesAfter)/1e6)
	if err := qs.Close(); err != nil {
		return fmt.Errorf("qlog: %w", err)
	}
	return sess.Close()
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
