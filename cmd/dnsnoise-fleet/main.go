// Command dnsnoise-fleet runs an in-process multi-PoP resolver fleet:
// N independent clusters behind client steering, one shared
// authoritative namespace, and an aggregating collector that serves the
// fleet-wide control-plane API. The query stream is either generated
// live (-live, the default) or replayed from a dnsnoise-gen trace
// (-trace); either way each client's queries steer to one PoP, every
// PoP runs the full ingest pipeline with its own telemetry, event log,
// pDNS store, and hourly counters, and the merged measurements
// reproduce a single-cluster run over the same stream bit for bit.
//
// With -score each PoP also runs the incremental miner: a classifier is
// trained on a single-cluster pre-pass over the same workload, then
// every PoP re-scores its own traffic each -score-window of simulated
// time and stamps live verdicts into its event log.
//
// The control plane (-metrics-addr) serves:
//
//	GET /fleet/metrics  merged Prometheus exposition (pop= labels)
//	GET /fleet/pops     per-PoP health JSON
//	GET /fleet/qlog     merged event tail (zone/server/pop/... filters)
//	GET /fleet/report   fleet run report, one span tree per PoP
//	GET /fleet/tsdb     time-series range queries (with -tsdb-interval)
//	GET /fleet/alerts   SLO rule status and transitions (with -tsdb-interval)
//
// Usage:
//
//	dnsnoise-fleet -pops 3 -days 2 -metrics-addr :8090 -linger 30s
//	dnsnoise-fleet -pops 3 -days 2 -metrics-addr :8090 -tsdb-interval 1s -linger 5m
//	dnsnoise-fleet -trace trace.jsonl -pops 4 -steering modulo -report -
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dnsnoise/internal/core"
	"dnsnoise/internal/fleet"
	"dnsnoise/internal/ingest"
	"dnsnoise/internal/mlearn"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/telemetry/alerts"
	"dnsnoise/internal/telemetry/tsdb"
	"dnsnoise/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dnsnoise-fleet:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dnsnoise-fleet", flag.ContinueOnError)
	var (
		pops      = fs.Int("pops", 3, "resolver PoPs in the fleet")
		steering  = fs.String("steering", "hash", "client steering: hash (rendezvous) or modulo")
		metrics   = fs.String("metrics-addr", "", "serve the /fleet/* control-plane API on this address (':0' picks a port)")
		qlogN     = fs.Int("qlog", 0, "sample 1 in N queries per server into each PoP's event log (0 = library default)")
		report    = fs.String("report", "", "write the fleet run report as JSON to this path ('-' for stdout)")
		linger    = fs.Duration("linger", 0, "keep the control plane serving this long after the run (for scrapes)")
		collectEv = fs.Duration("collect-every", 2*time.Second, "collector sweep cadence")

		tsdbEvery  = fs.Duration("tsdb-interval", 0, "record every collector sweep into the fleet tsdb and evaluate alert rules; overrides -collect-every as the sweep cadence (0 disables)")
		tsdbRetain = fs.Int("tsdb-retain", tsdb.DefaultRetain, "samples retained per tsdb series (ring capacity)")
		alertRules = fs.String("alert-rules", "", "JSON SLO/alert rules file evaluated each sweep (empty: built-in defaults; 'none': no rules)")

		tracePath = fs.String("trace", "", "input trace(s), comma-separated (JSONL from dnsnoise-gen, gzip sniffed)")
		live      = fs.Bool("live", false, "generate the query stream in-process (default when -trace is empty)")
		profileNm = fs.String("profile", "december", "calibration profile: february, december, or dates")
		days      = fs.Int("days", 1, "days to generate with -live (ignored for -profile dates)")
		events    = fs.Int("events", 200_000, "base events per day (must match the generator for -trace)")
		clients   = fs.Int("clients", 5000, "client population (must match the generator for -trace)")
		seed      = fs.Int64("seed", 1, "namespace seed (must match the generator for -trace)")
		ndZones   = fs.Int("zones", 900, "non-disposable zone count (must match)")
		dispZn    = fs.Int("disposable-zones", 398, "disposable zone count (must match)")
		maxHosts  = fs.Int("hosts-per-zone", 128, "host pool cap (must match)")
		servers   = fs.Int("servers", 4, "RDNS servers per PoP")
		cacheSz   = fs.Int("cache", 1<<16, "per-server cache entries")
		parallel  = fs.Bool("parallel", false, "resolve through per-server resolver workers in each PoP")

		score    = fs.Bool("score", false, "train a classifier on a single-cluster pre-pass, then run the incremental miner in every PoP")
		scoreWin = fs.Duration("score-window", 6*time.Hour, "re-score cadence in simulated time (with -score)")
		theta    = fs.Float64("theta", 0.9, "classification threshold (with -score)")
		hyster   = fs.Int("hysteresis", 2, "consecutive windows to flip a zone's verdict (with -score)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *events < 1 {
		return fmt.Errorf("-events must be >= 1 (got %d)", *events)
	}
	if *tracePath == "" && !*live {
		*live = true
	}
	if *tracePath != "" && *live {
		return fmt.Errorf("-trace and -live are mutually exclusive")
	}
	if *pops < 1 {
		return fmt.Errorf("-pops must be >= 1")
	}
	steer, err := fleet.ParseSteering(*steering)
	if err != nil {
		return err
	}

	cfg := fleet.Config{
		Pops:     *pops,
		Steering: steer,
		Servers:  *servers,
		Cache:    *cacheSz,
		Parallel: *parallel,
		Registry: workload.RegistryConfig{
			Seed:               *seed,
			NonDisposableZones: *ndZones,
			DisposableZones:    *dispZn,
			HostsPerZoneMax:    *maxHosts,
		},
		Generator: workload.GeneratorConfig{
			Seed:             *seed + 2,
			Clients:          *clients,
			BaseEventsPerDay: *events,
		},
		QlogSample:   *qlogN,
		CollectEvery: *collectEv,
	}
	if *tsdbEvery > 0 {
		cfg.TSDB = true
		cfg.TSDBRetain = *tsdbRetain
		cfg.CollectEvery = *tsdbEvery
		rules, err := (alerts.CLIConfig{RulesPath: *alertRules}).Rules()
		if err != nil {
			return err
		}
		if rules == nil {
			rules = []alerts.Rule{} // "none": non-nil empty disables alerting
		}
		cfg.AlertRules = rules
	}
	if *score {
		clf, err := trainClassifier(cfg, *profileNm, *days, *tracePath, *parallel)
		if err != nil {
			return fmt.Errorf("train: %w", err)
		}
		cfg.ScoreWindow = *scoreWin
		cfg.NewScorer = func(int) (*core.StreamingPipeline, error) {
			return core.NewStreamingPipeline(clf,
				core.MinerConfig{Theta: *theta},
				core.StreamingConfig{Hysteresis: *hyster, NumServers: *servers}, nil)
		}
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return err
	}

	var srv *fleet.Server
	if *metrics != "" {
		if srv, err = f.Serve(*metrics); err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "control plane on http://%s/fleet/metrics (pops, qlog, report)\n", srv.Addr())
	}
	f.Collector().Start()
	defer f.Collector().Stop()

	src, replayDay, err := buildSource(f, *live, *profileNm, *days, *tracePath)
	if err != nil {
		return err
	}
	defer src.Close()
	start := time.Now()
	if err := f.Run(src, replayDay); err != nil {
		return err
	}
	elapsed := time.Since(start)

	var total uint64
	for _, p := range f.Pops() {
		st := p.Cluster.Stats()
		total += st.Queries
		chr := 0.0
		if st.Queries > 0 {
			chr = float64(st.CacheHits) / float64(st.Queries)
		}
		fmt.Fprintf(stdout, "pop %d: %d queries, %.1f%% cache hits, %d upstream round trips, %d pdns records\n",
			p.ID, st.Queries, 100*chr, st.UpstreamRTs, p.Store.Len())
	}
	merged := f.MergedStore()
	fmt.Fprintf(stdout, "fleet: %d queries across %d pops (%s steering) in %s; merged pdns: %d records, %d disposable\n",
		total, *pops, steer, elapsed.Round(time.Millisecond), merged.Len(), merged.DisposableCount())

	if *report != "" {
		rep := f.Report()
		rep.Args = args
		if err := rep.WriteFile(*report); err != nil {
			return err
		}
	}
	if *linger > 0 && srv != nil {
		fmt.Fprintf(stdout, "lingering %s on http://%s\n", *linger, srv.Addr())
		time.Sleep(*linger)
	}
	return nil
}

// buildSource wires the fleet's query stream: the fleet's own generator
// for -live (so the namespace minting the queries is the one the PoPs
// resolve against), or a trace replay with the day hook that walks the
// shared registry through the recording's per-day states.
func buildSource(f *fleet.Fleet, live bool, profileNm string, days int, tracePath string) (ingest.QuerySource, func(time.Time) error, error) {
	if live {
		profiles, err := workload.SelectProfiles(profileNm, days)
		if err != nil {
			return nil, nil, err
		}
		return ingest.NewGeneratorSource(f.Generator(), profiles...), nil, nil
	}
	profileFor, err := workload.ProfileResolver(profileNm)
	if err != nil {
		return nil, nil, err
	}
	src := ingest.NewTraceSource(strings.Split(tracePath, ",")...)
	return src, ingest.ReplayProfiles(f.Generator(), profileFor), nil
}

// trainClassifier runs the same workload through one ordinary cluster
// (fresh namespace, same seeds) and trains the miner's classifier on
// the namespace's ground-truth labels — the single-cluster pre-pass the
// -score mode bootstraps from, mirroring dnsnoise-mine.
func trainClassifier(cfg fleet.Config, profileNm string, days int, tracePath string, parallel bool) (*mlearn.DecisionTree, error) {
	reg := workload.NewRegistry(cfg.Registry)
	auth, err := reg.BuildAuthority(nil, nil)
	if err != nil {
		return nil, err
	}
	nsrv := cfg.Servers
	if nsrv <= 0 {
		nsrv = 4
	}
	cluster, err := resolver.NewCluster(auth, resolver.WithServers(nsrv))
	if err != nil {
		return nil, err
	}
	gen := workload.NewGenerator(reg, cfg.Generator)
	var (
		src  ingest.QuerySource
		opts []ingest.Option
	)
	if tracePath == "" {
		profiles, err := workload.SelectProfiles(profileNm, days)
		if err != nil {
			return nil, err
		}
		src = ingest.NewGeneratorSource(gen, profiles...)
	} else {
		profileFor, err := workload.ProfileResolver(profileNm)
		if err != nil {
			return nil, err
		}
		src = ingest.NewTraceSource(strings.Split(tracePath, ",")...)
		opts = append(opts, ingest.OnDayStart(ingest.ReplayProfiles(gen, profileFor)))
	}
	defer src.Close()
	var collected *ingest.Window
	opts = append(opts, ingest.WithSingleWindow(), ingest.OnWindow(func(w ingest.Window) error {
		collected = &w
		return nil
	}))
	if parallel {
		opts = append(opts, ingest.WithParallel())
	}
	if err := ingest.NewRunner(cluster, opts...).Run(src); err != nil {
		return nil, err
	}
	if collected == nil || collected.Queries == 0 {
		return nil, fmt.Errorf("empty training stream")
	}
	names := collected.Collector.ByName()
	tree := core.BuildTree(names, nil)
	examples := core.BuildTrainingSet(tree, names, reg.TrainingLabels(401), core.TrainingConfig{})
	return core.TrainClassifier(examples, core.TrainingConfig{})
}
