package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/core"
	"dnsnoise/internal/dntree"
	"dnsnoise/internal/ingest"
	"dnsnoise/internal/mlearn"
	"dnsnoise/internal/pdns"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/traceio"
	"dnsnoise/internal/workload"
)

// dayScale sizes the simulated day. Zones, hosts, clients, servers and
// cache are dnsnoise-mine's defaults; see README.md for the base volume.
type dayScale struct {
	zones, dispZones, hosts int
	clients, events         int
	servers, cacheSize      int
}

var benchDay = dayScale{
	zones: 900, dispZones: 398, hosts: 128,
	clients: 5000, events: 50_000,
	servers: 4, cacheSize: 1 << 16,
}

const (
	theta         = 0.9
	rescoreEvery  = 15 * time.Minute
	daySpanEvery  = 1000 // record the layer spans of every Nth query
	trainNegative = 401  // dnsnoise-mine's training label budget
)

// namespace builds the seed's registry and authority, as the CLIs do.
func (s dayScale) namespace(seed int64) (*workload.Registry, *authority.Server, error) {
	reg := workload.NewRegistry(workload.RegistryConfig{
		Seed:               seed,
		NonDisposableZones: s.zones,
		DisposableZones:    s.dispZones,
		HostsPerZoneMax:    s.hosts,
	})
	auth, err := reg.BuildAuthority(nil, nil)
	return reg, auth, err
}

// generator mirrors the CLIs' seeding (namespace seed + 2).
func (s dayScale) generator(reg *workload.Registry, seed int64) *workload.Generator {
	return workload.NewGenerator(reg, workload.GeneratorConfig{
		Seed: seed + 2, Clients: s.clients, BaseEventsPerDay: s.events,
	})
}

func (s dayScale) cluster(up resolver.Upstream) (*resolver.Cluster, error) {
	return resolver.NewCluster(up, resolver.WithServers(s.servers), resolver.WithCacheSize(s.cacheSize))
}

// dayFixture is what set-up hands the measured days: the classifier
// trained on the seed's day and, for replays, that day's trace.
type dayFixture struct {
	seed      int64
	clf       *mlearn.DecisionTree
	tracePath string
}

// setupDay simulates the seed's December day once, training the
// classifier on its collector the way dnsnoise-mine does, and — when
// tracePath is set — records the day's queries as a gzip JSONL trace.
func setupDay(seed int64, tracePath string) (*dayFixture, error) {
	reg, auth, err := benchDay.namespace(seed)
	if err != nil {
		return nil, err
	}
	cluster, err := benchDay.cluster(auth)
	if err != nil {
		return nil, err
	}
	profiles, err := workload.SelectProfiles("december", 1)
	if err != nil {
		return nil, err
	}
	var col *chrstat.Collector
	opts := []ingest.Option{ingest.WithSingleWindow(),
		ingest.OnWindow(func(w ingest.Window) error { col = w.Collector; return nil })}
	var closeTrace func() error
	if tracePath != "" {
		var w *traceio.Writer
		w, closeTrace, err = traceio.CreatePath(tracePath)
		if err != nil {
			return nil, err
		}
		opts = append(opts, ingest.WithQuerySinks(w))
	}
	err = ingest.NewRunner(cluster, opts...).Run(ingest.NewGeneratorSource(benchDay.generator(reg, seed), profiles...))
	if closeTrace != nil {
		if cerr := closeTrace(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, fmt.Errorf("training day: %w", err)
	}
	byName := col.ByName()
	tree := core.BuildTree(byName, nil)
	examples := core.BuildTrainingSet(tree, byName, reg.TrainingLabels(trainNegative), core.TrainingConfig{})
	clf, err := core.TrainClassifier(examples, core.TrainingConfig{})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	return &dayFixture{seed: seed, clf: clf, tracePath: tracePath}, nil
}

// dayResult is one measured day.
type dayResult struct {
	seed      int64 // namespace seed
	wall, cpu time.Duration
	events    int
	samples   []float64 // ms: window times (day-live) or re-scores (stream-replay)
	findings  int
	tp, fp    int
	failed    uint64 // upstream errors + SERVFAIL answers
	drifts    int
	stats     resolver.Stats
	evictions uint64
	premature uint64
	reclaims  uint64
	chrRecs   int
	pdnsRecs  int
	pdnsBytes uint64
	mem       memDelta
	pauses    int64
	ledger    *ledger  // nil for untraced days
	checks    []string // failed output checks
}

// runDay simulates or replays the fixture's day once. With l non-nil
// every seam is wrapped in the ledger's timers; the untraced day runs the
// program's own objects unwrapped.
func runDay(fx *dayFixture, replay bool, l *ledger) (*dayResult, error) {
	reg, auth, err := benchDay.namespace(fx.seed)
	if err != nil {
		return nil, err
	}
	inline := !replay // the parallel replay runs sinks and upstream on the resolver workers
	var (
		up  resolver.Upstream = auth
		clf mlearn.Classifier = fx.clf
		src ingest.QuerySource
		ts  *tracedSource
	)
	if l != nil {
		up = &tracedUpstream{up: auth, l: l, inline: inline}
		clf = &tracedClassifier{c: fx.clf, l: l, inline: true}
	}
	cluster, err := benchDay.cluster(up)
	if err != nil {
		return nil, err
	}
	gen := benchDay.generator(reg, fx.seed)
	timed := func(id timerID, fn func() error) error {
		if l == nil {
			return fn()
		}
		l.begin(id)
		defer l.end()
		return fn()
	}
	var opts []ingest.Option
	if replay {
		profileFor, err := workload.ProfileResolver("december")
		if err != nil {
			return nil, err
		}
		prepare := ingest.ReplayProfiles(gen, profileFor)
		src = ingest.NewTraceSource(fx.tracePath)
		opts = append(opts, ingest.WithParallel(),
			ingest.OnDayStart(func(day time.Time) error {
				return timed(tPrepare, func() error { return prepare(day) })
			}))
	} else {
		profiles, err := workload.SelectProfiles("december", 1)
		if err != nil {
			return nil, err
		}
		src = ingest.NewGeneratorSource(gen, profiles...)
	}
	defer src.Close()
	if l != nil {
		ts = &tracedSource{src: src, l: l}
		src = ts
	}

	sp, err := core.NewStreamingPipeline(clf, core.MinerConfig{Theta: theta},
		core.StreamingConfig{NumServers: benchDay.servers}, nil)
	if err != nil {
		return nil, err
	}
	res := &dayResult{seed: fx.seed, ledger: l}
	sp.OnDrift(func(core.DriftEvent) { res.drifts++ })
	var (
		intake ingest.ObservationSink = sp
		store  *pdns.Store
		sinks  []ingest.ObservationSink
	)
	if l != nil {
		intake = &tracedSink{sink: sp, id: tIntake, l: l, inline: inline}
	}
	if !replay {
		store = pdns.NewStore()
		var ps ingest.ObservationSink = ingest.TapSink(store.Tap(), nil)
		if l != nil {
			ps = &tracedSink{sink: ps, id: tPDNS, l: l, inline: inline}
		}
		sinks = append(sinks, ps)
	}
	sinks = append(sinks, intake)

	var (
		lastTick time.Time
		dayRes   core.RescoreResult
		col      *chrstat.Collector
	)
	tick := func(tk ingest.Tick) error {
		// day-live has no intra-day re-score: its tick only stamps how
		// long each 15-minute window of traffic took to get through.
		now := time.Now()
		if !replay {
			res.samples = append(res.samples, ms(now.Sub(lastTick)))
			lastTick = now
			return nil
		}
		err := timed(tRescore, func() error { _, err := sp.Rescore(tk.Day); return err })
		res.samples = append(res.samples, ms(time.Since(now)))
		return err
	}
	opts = append(opts, ingest.WithSingleWindow(), ingest.WithSinks(sinks...),
		ingest.WithWindowTicks(rescoreEvery, tick),
		ingest.OnWindow(func(w ingest.Window) error {
			col = w.Collector
			res.events = w.Queries
			return timed(tEndDay, func() error { var err error; dayRes, err = sp.EndDay(w.Date); return err })
		}))

	miner, err := core.NewMiner(clf, core.MinerConfig{Theta: theta})
	if err != nil {
		return nil, err
	}
	mem0 := readMem()
	cpu0 := cpuTime()
	start := time.Now()
	lastTick = start
	err = ingest.NewRunner(cluster, opts...).Run(src)
	if ts != nil {
		ts.finish()
		res.pauses = ts.pauses
	}
	if err != nil {
		return nil, fmt.Errorf("run day: %w", err)
	}
	var (
		byName   map[string][]*chrstat.RRStat
		tree     *dntree.Tree
		findings []core.Finding
	)
	_ = timed(tByName, func() error { byName = col.ByName(); return nil })
	_ = timed(tBuildTree, func() error { tree = core.BuildTree(byName, nil); return nil })
	err = timed(tMine, func() error { var err error; findings, err = miner.Mine(tree, byName); return err })
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	res.mem = readMem().sub(mem0)
	if err != nil {
		return nil, fmt.Errorf("mine: %w", err)
	}

	if !reflect.DeepEqual(dayRes.Findings, findings) {
		res.checks = append(res.checks, fmt.Sprintf("EndDay findings (%d) differ from the batch Miner.Mine findings (%d)",
			len(dayRes.Findings), len(findings)))
	}
	res.findings = len(findings)
	res.tp, res.fp = groundTruth(findings, reg.GroundTruth())
	res.stats = cluster.Stats()
	res.failed = res.stats.UpstreamErrors + res.stats.ServFails
	for _, cs := range cluster.CacheStats() {
		res.evictions += cs.Evictions
		res.reclaims += cs.Reclaims
		for _, row := range cs.PrematureEvictions {
			res.premature += row[0] + row[1]
		}
	}
	for _, rrs := range byName {
		res.chrRecs += len(rrs)
	}
	if store != nil {
		res.pdnsRecs = store.Len()
		res.pdnsBytes = store.StorageBytes()
	}
	return res, nil
}

// groundTruth scores findings as dnsnoise-mine does: a finding is
// correct when at least half its names fall under a disposable zone.
func groundTruth(findings []core.Finding, labels map[string]bool) (tp, fp int) {
	disp := make(map[string]bool, len(labels))
	for zone, d := range labels {
		if d {
			disp[zone] = true
		}
	}
	isDisp := func(name string) bool {
		for probe := name; probe != ""; {
			if disp[probe] {
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
	return tp, fp
}

func tracePathFor(dir string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("day-seed%d.jsonl.gz", seed))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// dayRef pins the miner's output for a seed: every measured day of a run
// must reproduce it, and seeds listed in dayReference must match the
// pinned figures.
type dayRef struct{ findings, tp, fp int }

// dayReference holds the findings and ground-truth TP/FP measured at the
// benchmark's day scale for the three namespaces of run seeds 1-10,
// keyed by namespace seed.
var dayReference = map[int64]dayRef{
	1: {90, 66, 24}, 2: {68, 57, 11}, 3: {69, 57, 12}, 4: {82, 69, 13}, 5: {92, 61, 31},
	6: {69, 55, 14}, 7: {86, 65, 21}, 8: {95, 62, 33}, 9: {116, 70, 46}, 10: {69, 60, 9},
	1000004: {119, 75, 44}, 1000005: {67, 60, 7}, 1000006: {75, 59, 16}, 1000007: {68, 62, 6},
	1000008: {82, 60, 22}, 1000009: {80, 62, 18}, 1000010: {123, 66, 57}, 1000011: {95, 68, 27},
	1000012: {93, 53, 40}, 1000013: {81, 61, 20}, 2000007: {125, 65, 60}, 2000008: {71, 59, 12},
	2000009: {70, 54, 16}, 2000010: {107, 71, 36}, 2000011: {102, 65, 37}, 2000012: {82, 65, 17},
	2000013: {70, 67, 3}, 2000014: {98, 67, 31}, 2000015: {82, 60, 22}, 2000016: {80, 58, 22},
}

// dayNamespaces is how many namespaces a day run cycles through. Day cost
// depends on the namespace (finding count, hit ratio): one namespace's
// day ran 25% faster than another's on every repeat, so a run reports the
// mean over three namespaces derived from its seed rather than one.
const dayNamespaces = 3

// namespaceSeed is the k-th namespace seed of a run seed.
func namespaceSeed(seed int64, k int) int64 { return seed + int64(k)*1_000_003 }

// runDayWorkload runs day-live (replay false) or stream-replay (replay
// true): one set-up per namespace, then measured days cycling through the
// namespaces until the budget is spent. A traced run pairs each untraced
// day with a traced day of the same namespace, so the tracing overhead
// is measured between neighbours.
func runDayWorkload(cfg config, replay bool) (*result, error) {
	var (
		fxs    []*dayFixture
		setups []float64
	)
	for k := 0; k < dayNamespaces; k++ {
		seed := namespaceSeed(cfg.seed, k)
		tracePath := ""
		if replay {
			tracePath = tracePathFor(cfg.out, seed)
			defer os.Remove(tracePath)
		}
		start := time.Now()
		fx, err := setupDay(seed, tracePath)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		fxs = append(fxs, fx)
	}
	res := &result{correct: true, metrics: map[string]float64{}}
	plain := make([][]*dayResult, dayNamespaces) // per namespace
	var pairs [][2]*dayResult                    // traced runs: (untraced, traced) of one namespace
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	minDays := dayNamespaces // every namespace, untraced; or one traced pair
	if cfg.trace {
		minDays = 2
	}
	// A traced run always finishes the pair it started.
	for i := 0; i < minDays || (cfg.trace && i%2 == 1) || time.Now().Before(deadline); i++ {
		k := i % dayNamespaces
		if cfg.trace {
			k = (i / 2) % dayNamespaces
		}
		var l *ledger
		if cfg.trace && i%2 == 1 {
			l = newLedger(daySpanEvery)
		}
		d, err := runDay(fxs[k], replay, l)
		if err != nil {
			return nil, err
		}
		if l == nil {
			plain[k] = append(plain[k], d)
		} else {
			pairs = append(pairs, [2]*dayResult{plain[k][len(plain[k])-1], d})
		}
	}
	var all []*dayResult
	for k, days := range plain {
		all = append(all, days...)
		checkDays(res, fxs[k].seed, days)
	}
	for _, p := range pairs {
		checkDays(res, p[0].seed, []*dayResult{p[0], p[1]})
		all = append(all, p[1])
	}
	for _, d := range all {
		res.attempted += int64(d.events)
		res.failed += int64(d.failed)
		if d.failed > 0 {
			res.correct = false
			res.note("CHECK FAILED: %d upstream errors / SERVFAIL answers in one day", d.failed)
		}
		for _, c := range d.checks {
			res.fail("%s", c)
		}
	}

	// End-to-end, from the untraced days: the median over each
	// namespace's days, then the mean over namespaces.
	var eps, cpu, p50, tail []float64
	tailPct := 0
	for k, days := range plain {
		if len(days) == 0 {
			continue // a traced run that ran out of time before this namespace
		}
		var e, c, p, t, w []float64
		for _, d := range days {
			w = append(w, d.wall.Seconds())
			e = append(e, float64(d.events)/d.wall.Seconds())
			c = append(c, float64(d.cpu.Microseconds())/float64(d.events))
			p = append(p, median(d.samples))
			q, v, ok := tailPercentile(d.samples, 90)
			if !ok {
				return nil, fmt.Errorf("only %d window samples in a day", len(d.samples))
			}
			tailPct = q
			t = append(t, v)
		}
		eps, cpu = append(eps, median(e)), append(cpu, median(c))
		p50, tail = append(p50, median(p)), append(tail, median(t))
		res.note("namespace seed %d: %d untraced days of %d events, day wall median %.3f s; %d findings (%d TP / %d FP)",
			fxs[k].seed, len(days), days[0].events, median(w), days[0].findings, days[0].tp, days[0].fp)
	}
	res.set("setup_s", median(setups))
	res.set("max_rss_mb", maxRSSMB())
	res.set("ops_per_s", mean(eps))
	res.set("cpu_us_per_op", mean(cpu))
	res.set("p50_ms", mean(p50))
	res.set("tail_ms", mean(tail))
	what := "window (15 simulated minutes)"
	if replay {
		what = "re-score"
	}
	res.note("day_events_per_s = ops_per_s; day_cpu_us_per_event = cpu_us_per_op")
	res.note("p50_ms / tail_ms: %s wall time, p50 / p%d of %d samples per day",
		what, tailPct, len(all[0].samples))

	// Runtime work per event, from the untraced days.
	var (
		mem    memDelta
		events int
		n      float64
	)
	for _, days := range plain {
		for _, d := range days {
			mem.mallocs += d.mem.mallocs
			mem.bytes += d.mem.bytes
			mem.gcs += d.mem.gcs
			mem.pauseNS += d.mem.pauseNS
			events += d.events
			n++
		}
	}
	res.set("runtime.allocs_per_op", float64(mem.mallocs)/float64(events))
	res.set("runtime.bytes_per_op", float64(mem.bytes)/float64(events))
	res.set("runtime.gc_cycles", float64(mem.gcs)/n)
	res.set("runtime.gc_pause_ms", float64(mem.pauseNS)/1e6/n)
	if cfg.trace {
		dayLedger(res, pairs, replay)
		if err := pairs[0][1].ledger.writeSpans(spanPath(cfg)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkDays checks that every day of one namespace mined the same
// findings, equal to the pinned reference when the seed has one.
func checkDays(res *result, seed int64, days []*dayResult) {
	if len(days) == 0 {
		return
	}
	ref, pinned := dayReference[seed]
	if !pinned {
		ref = dayRef{days[0].findings, days[0].tp, days[0].fp}
	}
	for _, d := range days {
		if got := (dayRef{d.findings, d.tp, d.fp}); got != ref {
			res.fail("namespace seed %d mined %d findings (%d TP / %d FP), reference %d (%d TP / %d FP, pinned %v)",
				seed, got.findings, got.tp, got.fp, ref.findings, ref.tp, ref.fp, pinned)
		}
	}
}

// dayLedger reports the per-layer metrics of the traced days: per-call
// costs from the ledger's timers, counts per day, and the check that the
// runner lane's self times add up to the day's wall time.
func dayLedger(res *result, pairs [][2]*dayResult, replay bool) {
	n := float64(len(pairs))
	var sum ledger // sums over the traced days
	for _, p := range pairs {
		for id := range p[1].ledger.timers {
			t := &p[1].ledger.timers[id]
			sum.timers[id].calls.Add(t.calls.Load())
			sum.timers[id].totalNS.Add(t.totalNS.Load())
			sum.timers[id].selfNS.Add(t.selfNS.Load())
		}
	}
	perDayMS := func(id timerID) float64 { return float64(sum.timers[id].totalNS.Load()) / 1e6 / n }
	// avg is a count's mean over the traced days (namespaces differ).
	avg := func(f func(d *dayResult) float64) float64 {
		var t float64
		for _, p := range pairs {
			t += f(p[1])
		}
		return t / n
	}
	events := avg(func(d *dayResult) float64 { return float64(d.events) })

	res.set("ingest.next_ns", sum.perCall(tIngest))
	res.set("ingest.prepare_ms", perDayMS(tPrepare))
	res.set("ingest.events", events)
	res.set("ingest.pauses", avg(func(d *dayResult) float64 { return float64(d.pauses) }))
	res.set("resolver.self_ns", float64(sum.self(tResolver))/n/events)
	res.set("resolver.hit_ratio", avg(func(d *dayResult) float64 { return float64(d.stats.CacheHits) / float64(d.stats.Queries) }))
	res.set("resolver.upstream_rts", avg(func(d *dayResult) float64 { return float64(d.stats.UpstreamRTs) }))
	res.set("resolver.upstream_errors", avg(func(d *dayResult) float64 { return float64(d.stats.UpstreamErrors) }))
	res.set("cache.evictions", avg(func(d *dayResult) float64 { return float64(d.evictions) }))
	res.set("cache.premature_evictions", avg(func(d *dayResult) float64 { return float64(d.premature) }))
	res.set("cache.reclaims", avg(func(d *dayResult) float64 { return float64(d.reclaims) }))
	res.set("authority.exchange_ns", sum.perCall(tAuthority))
	res.set("chrstat.records", avg(func(d *dayResult) float64 { return float64(d.chrRecs) }))
	res.set("chrstat.byname_ms", perDayMS(tByName))
	res.set("pdns.observe_ns", sum.perCall(tPDNS))
	res.set("pdns.records", avg(func(d *dayResult) float64 { return float64(d.pdnsRecs) }))
	res.set("pdns.storage_bytes", avg(func(d *dayResult) float64 { return float64(d.pdnsBytes) }))
	res.set("core.intake_ns", sum.perCall(tIntake))
	res.set("core.rescores", float64(sum.calls(tRescore))/n)
	res.set("core.rescore_ms_sum", perDayMS(tRescore))
	res.set("core.endday_ms", perDayMS(tEndDay))
	res.set("core.build_tree_ms", perDayMS(tBuildTree))
	res.set("core.mine_ms", perDayMS(tMine))
	res.set("core.findings", avg(func(d *dayResult) float64 { return float64(d.findings) }))
	res.set("core.drift_events", avg(func(d *dayResult) float64 { return float64(d.drifts) }))
	res.set("mlearn.predictions", float64(sum.calls(tPredict))/n)
	res.set("mlearn.predict_ns", sum.perCall(tPredict))
	for _, s := range perLayer {
		if _, ok := res.metrics[s.Name]; !ok {
			res.set(s.Name, 0) // the serve layers this workload bypasses
		}
	}

	// Tracing overhead: each traced day against the untraced day of the
	// same namespace run just before it.
	var ratios []float64
	for _, p := range pairs {
		ratios = append(ratios, p[1].wall.Seconds()/p[0].wall.Seconds())
	}
	res.set("trace.overhead_pct", 100*(median(ratios)-1))

	// The ledger: self time per seam on the runner lane, summed against
	// the day's wall time. Parallel replay's workers run the upstream and
	// intake seams off the runner lane; they are busy time, not ledger rows.
	lane := []timerID{tQuery, tIngest, tPrepare, tResolver, tRescore, tEndDay, tByName, tBuildTree, tMine, tPredict}
	if !replay {
		lane = append(lane, tAuthority, tPDNS, tIntake)
	}
	wall := avg(func(d *dayResult) float64 { return float64(d.wall) })
	var covered float64
	res.note("ledger (mean over %d traced days): seam self ms, share of the day's wall time", len(pairs))
	for _, id := range lane {
		self := float64(sum.self(id)) / n
		covered += self
		res.note("  %-20s %10.1f ms %6.2f%%", timerNames[id], self/1e6, 100*self/wall)
	}
	if replay {
		res.note("  off the runner lane (busy time on the resolver workers): authority.exchange %.1f ms, core.intake %.1f ms",
			float64(sum.self(tAuthority))/n/1e6, float64(sum.self(tIntake))/n/1e6)
	}
	var gaps []float64
	for _, p := range pairs {
		var c float64
		for _, id := range lane {
			c += float64(p[1].ledger.self(id))
		}
		gaps = append(gaps, 100*(1-c/float64(p[1].wall)))
	}
	res.note("  %-20s %10.1f ms %6.2f%% (day wall %.1f ms)", "unaccounted", (wall-covered)/1e6, 100*(1-covered/wall), wall/1e6)
	res.note("  gap per traced day %s %%", fmtList(gaps))
	res.set("trace.ledger_gap_pct", median(gaps))
}
