package main

import (
	"fmt"
	"math"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/core"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/features"
	"dnsnoise/internal/ingest"
	"dnsnoise/internal/livescore"
	"dnsnoise/internal/qlog"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/telemetry"
	"dnsnoise/internal/udptransport"
	"dnsnoise/internal/workload"
)

// The serve workload's fixed load shape.
const (
	// spanSampleEvery: queries whose DNS ID is a multiple of this get
	// server-side spans in the traced run (1 in 64, like the qlog sample).
	spanSampleEvery = 64

	// Training day for the scorer: dnsnoise-serve -score's scale.
	serveTrainClients = 1000
	serveTrainEvents  = 60_000
	// serveRescoreEvery is the engine's wall-clock re-score interval.
	serveRescoreEvery = 2 * time.Second
	// serveSetups is how many times a run repeats its set-up; setup_s is
	// the median. With three the median moved by 18% between two sets of
	// ten runs.
	serveSetups = 5
	// serveQueries is the size of the query set drawn from the registry.
	serveQueries = 16384

	// nominalQPS is the open-loop rate latency, goodput and CPU are
	// reported at: a fifth of the rate where a 2-CPU host first lost
	// queries, so a scheduling stall of the listener does not overflow
	// the server's socket buffer.
	nominalQPS = 5_000
	// The nominal phase is a warm-up step and then measured steps filling
	// the rest of --seconds. The first steps after the server starts
	// often cost more CPU per query, while the first passes over the query
	// set bring new names into the miner's tree; the warm-up covers four
	// re-scores. A step lasts one re-score interval, so each holds one.
	warmupTime = 4 * serveRescoreEvery
	stepTime   = serveRescoreEvery
	// The capacity probe offers overloadQPS in overloadSteps short steps.
	overloadQPS      = 120_000
	overloadStepTime = 500 * time.Millisecond
	overloadSteps    = 3
)

// serveFixture is the set-up state: the namespace the server answers
// for, a streaming pipeline primed from a training day, and the query
// set with the answer header each query must get.
type serveFixture struct {
	auth    *authority.Server
	pipe    *core.StreamingPipeline
	queries [][]byte
	expect  []answer
}

// setupServe boots live scoring the way dnsnoise-serve -score does
// (training day, tree-structure classifier, batch mine, primed pipeline)
// and draws the query set from a second generator over the same registry.
func setupServe(seed int64) (*serveFixture, error) {
	reg, auth, err := benchDay.namespace(seed)
	if err != nil {
		return nil, err
	}
	cluster, err := resolver.NewCluster(auth, resolver.WithServers(2), resolver.WithCacheSize(1<<14))
	if err != nil {
		return nil, err
	}
	profiles, err := workload.SelectProfiles("december", 1)
	if err != nil {
		return nil, err
	}
	gen := workload.NewGenerator(reg, workload.GeneratorConfig{
		Seed: seed + 2, Clients: serveTrainClients, BaseEventsPerDay: serveTrainEvents})
	var col *chrstat.Collector
	if err := ingest.NewRunner(cluster, ingest.WithSingleWindow(),
		ingest.OnWindow(func(w ingest.Window) error { col = w.Collector; return nil }),
	).Run(ingest.NewGeneratorSource(gen, profiles...)); err != nil {
		return nil, fmt.Errorf("training day: %w", err)
	}
	byName := col.ByName()
	trainCfg := core.TrainingConfig{FeatureMask: features.TreeStructureIdx}
	examples := core.BuildTrainingSet(core.BuildTree(byName, nil), byName, reg.TrainingLabels(trainNegative), trainCfg)
	clf, err := core.TrainClassifier(examples, trainCfg)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	mcfg := core.MinerConfig{Theta: theta, FeatureMask: features.TreeStructureIdx}
	miner, err := core.NewMiner(clf, mcfg)
	if err != nil {
		return nil, err
	}
	findings, err := miner.Mine(core.BuildTree(byName, nil), byName)
	if err != nil {
		return nil, fmt.Errorf("prime mine: %w", err)
	}
	pipe, err := core.NewStreamingPipeline(clf, mcfg, core.StreamingConfig{Hysteresis: core.DefaultHysteresis}, nil)
	if err != nil {
		return nil, err
	}
	pipe.Prime(findings)

	fx := &serveFixture{auth: auth, pipe: pipe}
	src := ingest.NewGeneratorSource(workload.NewGenerator(reg, workload.GeneratorConfig{
		Seed: seed + 3, Clients: serveTrainClients, BaseEventsPerDay: serveTrainEvents}), profiles...)
	for len(fx.queries) < serveQueries {
		q, err := src.Next()
		if err == ingest.ErrPause {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("query set: %w", err)
		}
		wire, err := dnsmsg.NewQuery(0, q.Name, q.Type).Encode()
		if err != nil {
			return nil, err
		}
		resp, err := auth.HandleWire(wire)
		if err != nil {
			return nil, fmt.Errorf("reference answer for %s: %w", q.Name, err)
		}
		_, want, ok := headerOf(resp)
		if !ok {
			return nil, fmt.Errorf("short reference answer for %s", q.Name)
		}
		fx.queries = append(fx.queries, wire)
		fx.expect = append(fx.expect, want)
	}
	return fx, nil
}

// serveInstance is one running front door over the fixture.
type serveInstance struct {
	srv        *udptransport.Server
	eng        *livescore.Engine
	qlg        *qlog.Log
	treg       *telemetry.Registry
	qsinks     []*tracedQlogSink
	probes     *probeRing
	disposable atomic.Int64
}

// start serves the fixture on a loopback port in dnsnoise-serve -score's
// shape: metrics on, 1-in-64 qlog into the /debug/qlog ring and exemplar
// sinks, one listener, the default batch, the live scorer and engine
// re-scoring. With l non-nil the handler, scorers and qlog sinks are
// wrapped in the ledger's timers.
func (fx *serveFixture) start(l *ledger) (*serveInstance, error) {
	in := &serveInstance{treg: telemetry.NewRegistry(), qlg: qlog.New(qlog.Config{Sample: qlog.DefaultSample})}
	for _, s := range []qlog.Sink{qlog.NewMemorySink(1024), qlog.NewExemplarSink()} {
		if l != nil {
			ts := &tracedQlogSink{sink: s, l: l}
			in.qsinks = append(in.qsinks, ts)
			s = ts
		}
		in.qlg.AddSink(s)
	}
	fx.pipe.SetMetrics(in.treg)
	in.eng = livescore.NewEngine(fx.pipe)
	in.eng.SetMetrics(in.treg)
	in.eng.Start(serveRescoreEvery)
	var (
		handler udptransport.Handler = fx.auth
		factory                      = func(int) udptransport.Scorer { return in.eng.NewScorer() }
	)
	if l != nil {
		in.probes = &probeRing{slots: make([]probe, 1<<16)}
		handler = &tracedHandler{wire: fx.auth, l: l, probes: in.probes}
		factory = func(int) udptransport.Scorer {
			return &tracedScorer{s: in.eng.NewScorer(), l: l, probes: in.probes, disposable: &in.disposable}
		}
	}
	srv, err := udptransport.Serve(handler, "127.0.0.1:0",
		udptransport.WithServerMetrics(in.treg),
		udptransport.WithServerQueryLog(in.qlg),
		udptransport.WithScorer(factory))
	if err != nil {
		in.eng.Close()
		return nil, err
	}
	in.srv = srv
	return in, nil
}

func (in *serveInstance) close() {
	in.srv.Close() // joins the serve loop before the engine's final drain
	in.eng.Close()
	in.qlg.Close()
}

func (in *serveInstance) loadgen(fx *serveFixture) (*loadgen, error) {
	addr, err := net.ResolveUDPAddr("udp", in.srv.Addr())
	if err != nil {
		return nil, err
	}
	return &loadgen{addr: addr, queries: fx.queries, expect: fx.expect}, nil
}

// nominalStats collects the steps run at the nominal rate. Latency and
// CPU are read per step and reported as the median over steps, so a host
// disturbance that spoils one step does not move the run's figures.
type nominalStats struct {
	p50, p90, p99, cpu []float64 // per step: us from due time; us CPU per answer
	tailPct            int
	wall               time.Duration // first due time to last reply, summed over measured steps
	measured           int64         // correct answers in the measured steps
	sent, lost, wrong  int64
	mem                memDelta
}

// goodput is correct answers per second over the measured steps.
func (ns *nominalStats) goodput() float64 { return float64(ns.measured) / ns.wall.Seconds() }

// runNominal offers the warm-up step and then reps measured steps at the
// nominal rate, each on a fresh socket. The warm-up's answers are checked
// and counted but not timed.
func runNominal(g *loadgen, reps int, keep func(*stepResult)) (*nominalStats, error) {
	ns := &nominalStats{}
	count := func(s *stepResult) {
		ns.sent += int64(len(s.recv))
		ns.lost += int64(s.lost()) - s.wrong
		ns.wrong += s.wrong
	}
	warm, err := g.step(nominalQPS, warmupTime)
	if err != nil {
		return nil, err
	}
	count(warm)
	mem0 := readMem()
	for i := 0; i < reps; i++ {
		s, err := g.step(nominalQPS, stepTime)
		if err != nil {
			return nil, err
		}
		fromDue, _, _ := s.latencies()
		q, tail, ok := tailPercentile(fromDue, 90)
		if !ok {
			return nil, fmt.Errorf("only %d answers in a nominal step", len(fromDue))
		}
		asc := sorted(fromDue)
		ns.tailPct = q
		ns.p50 = append(ns.p50, percentile(asc, 50))
		ns.p90 = append(ns.p90, tail)
		ns.p99 = append(ns.p99, percentile(asc, 99))
		ns.cpu = append(ns.cpu, float64(s.cpu.Microseconds())/float64(s.answered))
		ns.wall += time.Duration(slices.Max(s.recv))
		ns.measured += int64(s.answered)
		count(s)
		if keep != nil {
			keep(s)
		}
	}
	ns.mem = readMem().sub(mem0)
	return ns, nil
}

// capacity offers overloadQPS for a few short steps and returns the
// median rate of correct answers. It is reported, not gated: on a 2-CPU
// host the sender, receiver, listener and engine share the processors,
// and the figure swung from 33k to 100k answers/s between runs.
func capacity(g *loadgen, res *result) (float64, error) {
	var rates []float64
	for i := 0; i < overloadSteps; i++ {
		s, err := g.step(overloadQPS, overloadStepTime)
		if err != nil {
			return 0, err
		}
		if s.wrong > 0 {
			res.fail("%d wrong answers under overload", s.wrong)
		}
		first := int64(math.MaxInt64)
		for _, r := range s.recv {
			if r != 0 {
				first = min(first, r)
			}
		}
		rates = append(rates, float64(s.answered)/(float64(slices.Max(s.recv)-first)/1e9))
	}
	return median(rates), nil
}

// runServeWorkload: set-up, then the nominal steps for goodput, latency
// and CPU, and (untraced) the capacity probe; a traced run adds traced
// nominal steps for the per-layer ledger instead of the probe.
func runServeWorkload(cfg config) (*result, error) {
	var (
		fx     *serveFixture
		setups []float64
	)
	for i := 0; i < serveSetups; i++ {
		start := time.Now()
		f, err := setupServe(cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		fx = f
	}
	res := &result{correct: true, metrics: map[string]float64{}}
	res.set("setup_s", median(setups))
	in, err := fx.start(nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		if in != nil {
			in.close()
		}
	}()
	g, err := in.loadgen(fx)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(cfg.seconds*float64(time.Second)) - warmupTime - overloadSteps*overloadStepTime
	reps := max(3, int(budget/stepTime))
	if cfg.trace {
		reps = max(3, (reps+1)/2) // traced steps on a second instance take the other half
	}
	nom, err := runNominal(g, reps, nil)
	if err != nil {
		return nil, err
	}
	res.attempted += nom.sent
	res.failed += nom.lost + nom.wrong
	if nom.lost+nom.wrong > 0 {
		res.correct = false
		res.note("CHECK FAILED: %d lost and %d wrong answers at the nominal %d qps", nom.lost, nom.wrong, nominalQPS)
	}
	res.note("nominal %d qps open loop: %d steps of %s, %d queries answered; latency from due time, medians over steps",
		nominalQPS, reps, stepTime, nom.measured)
	res.note("serve_p50_us %.1f, serve_p%d_us %.1f, serve_p99_us %.1f, serve_goodput_qps %.1f, serve_cpu_us_per_query %.2f",
		median(nom.p50), nom.tailPct, median(nom.p90), median(nom.p99),
		nom.goodput(), median(nom.cpu))
	res.note("per step: cpu_us_per_query %s; p%d_us %s", fmtList(nom.cpu), nom.tailPct, fmtList(nom.p90))
	res.set("max_rss_mb", maxRSSMB())
	res.set("ops_per_s", nom.goodput())
	res.set("cpu_us_per_op", median(nom.cpu))
	res.set("p50_ms", median(nom.p50)/1e3)
	res.set("tail_ms", median(nom.p90)/1e3)
	res.set("runtime.allocs_per_op", float64(nom.mem.mallocs)/float64(nom.measured))
	res.set("runtime.bytes_per_op", float64(nom.mem.bytes)/float64(nom.measured))
	res.set("runtime.gc_cycles", float64(nom.mem.gcs))
	res.set("runtime.gc_pause_ms", float64(nom.mem.pauseNS)/1e6)
	if !cfg.trace {
		maxQPS, err := capacity(g, res)
		if err != nil {
			return nil, err
		}
		res.note("serve_max_qps %.0f (answers/s offered %d qps; reported, not gated)", maxQPS, overloadQPS)
		return res, nil
	}
	in.close()
	in = nil
	if err := serveLedger(cfg, fx, res, nom, reps); err != nil {
		return nil, err
	}
	return res, nil
}

// serveLedger runs the traced nominal steps on a fresh instance with the
// handler, scorers and qlog sinks wrapped, and reports the serve-side
// per-layer metrics.
func serveLedger(cfg config, fx *serveFixture, res *result, plain *nominalStats, reps int) error {
	l := newLedger(0)
	in, err := fx.start(l)
	if err != nil {
		return err
	}
	g, err := in.loadgen(fx)
	if err != nil {
		in.close()
		return err
	}
	var steps []*stepResult
	nom, err := runNominal(g, reps, func(s *stepResult) { steps = append(steps, s) })
	snap := in.treg.Snapshot()
	scored := l.calls(tScore)
	dropped := in.eng.Dropped()
	in.close()
	if err != nil {
		return err
	}
	res.attempted += nom.sent
	res.failed += nom.lost + nom.wrong
	if nom.lost+nom.wrong > 0 {
		res.correct = false
		res.note("CHECK FAILED: %d lost and %d wrong answers in the traced nominal steps", nom.lost, nom.wrong)
	}
	var rtt, late []float64
	for _, s := range steps {
		_, r, lt := s.latencies()
		rtt = append(rtt, r...)
		late = append(late, lt...)
		joinProbes(l, s, in.probes)
	}
	var events int64
	for _, s := range in.qsinks {
		events += s.events.Load()
	}
	rtt50 := median(rtt)
	_, late99, _ := tailPercentile(late, 99)

	for _, s := range perLayer {
		if _, ok := res.metrics[s.Name]; !ok {
			res.set(s.Name, 0) // the day layers this workload bypasses
		}
	}
	res.set("authority.handle_ns", l.perCall(tHandle))
	res.set("udptransport.rx_packets", float64(snap.Counter("udp_rx_packets_total")))
	res.set("udptransport.tx_packets", float64(snap.Counter("udp_tx_packets_total")))
	res.set("udptransport.dropped", float64(snap.Counter("udp_dropped_total")))
	res.set("udptransport.truncated", float64(snap.Counter("udp_truncated_total")))
	res.set("udptransport.self_us", rtt50-(l.perCall(tHandle)+l.perCall(tScore))/1e3)
	res.set("livescore.score_ns", l.perCall(tScore))
	res.set("livescore.disposable_share", float64(in.disposable.Load())/float64(scored))
	res.set("livescore.names_dropped", float64(dropped)/float64(scored))
	res.set("qlog.events", float64(events))
	res.set("qlog.consume_ns", l.perCall(tQlog))
	res.set("loadgen.late_p99_us", late99)
	res.set("loadgen.rtt_p50_us", rtt50)
	res.set("trace.overhead_pct", 100*(median(nom.cpu)/median(plain.cpu)-1))
	res.note("traced nominal: median rtt %.1f us = handler %.1f us + scorer %.1f us (means) + transport, kernel and load generator %.1f us",
		rtt50, l.perCall(tHandle)/1e3, l.perCall(tScore)/1e3, res.metrics["udptransport.self_us"])
	return l.writeSpans(spanPath(cfg))
}

// joinProbes turns one traced step's sampled queries into spans: a root
// per query from its due time to its reply, with the generator's lateness
// and the server-side handler and scorer intervals as children, joined
// to the send by DNS ID.
func joinProbes(l *ledger, s *stepResult, probes *probeRing) {
	root := map[int64]int{}
	for seq := int64(0); seq < int64(len(s.recv)); seq += spanSampleEvery {
		if s.recv[seq] == 0 {
			continue
		}
		l.lastSpan++
		root[seq] = l.lastSpan
		l.spans = append(l.spans, span{ID: l.lastSpan, Name: "query", Req: s.first + seq,
			Start: s.t0 + s.due[seq], End: s.t0 + s.recv[seq]})
		l.lastSpan++
		l.spans = append(l.spans, span{ID: l.lastSpan, Parent: root[seq], Name: "loadgen.late", Req: s.first + seq,
			Start: s.t0 + s.due[seq], End: s.t0 + s.send[seq]})
	}
	var last int64
	for _, r := range s.recv {
		last = max(last, r)
	}
	n := min(int(probes.n.Load()), len(probes.slots))
	for _, p := range probes.slots[:n] {
		if p.start < s.t0 || p.start > s.t0+last {
			continue // another step's probe
		}
		seq := s.seqAt(p.id, p.start)
		parent, ok := root[seq]
		if !ok {
			continue
		}
		l.lastSpan++
		l.spans = append(l.spans, span{ID: l.lastSpan, Parent: parent, Name: timerNames[p.seam], Req: s.first + seq,
			Start: p.start, End: p.end})
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.1f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
