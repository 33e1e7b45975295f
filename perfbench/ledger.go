package main

import (
	"encoding/json"
	"os"
	"sync/atomic"
)

// timerID names one timed seam. Every seam belongs to one layer; the
// ledger's self time per seam is what the per-layer metrics report.
type timerID int

const (
	tQuery     timerID = iota // sampled query root (runner lane only)
	tIngest                   // QuerySource.Next
	tPrepare                  // day-start hook: replay walks the registry
	tResolver                 // the Runner's work between two Next calls
	tAuthority                // resolver.Upstream exchange
	tPDNS                     // pdns.Store sink
	tIntake                   // StreamingPipeline sink
	tRescore                  // tick hook: StreamingPipeline.Rescore
	tEndDay                   // window hook: StreamingPipeline.EndDay
	tByName                   // chrstat.Collector.ByName for the batch mine
	tBuildTree                // core.BuildTree for the batch mine
	tMine                     // Miner.Mine
	tPredict                  // mlearn.Classifier.PredictProb
	tHandle                   // serve handler (authority wire answer)
	tScore                    // livescore scorer
	tQlog                     // qlog sink consume
	nTimers
)

var timerNames = [nTimers]string{
	"query", "ingest.next", "ingest.prepare", "resolver", "authority.exchange", "pdns.observe",
	"core.intake", "core.rescore", "core.endday", "chrstat.byname",
	"core.build_tree", "core.mine", "mlearn.predict", "authority.handle",
	"livescore.score", "qlog.consume",
}

// timer accumulates one seam. Fields are updated atomically because the
// worker-lane seams run on resolver and listener goroutines.
type timer struct {
	calls   atomic.Int64
	totalNS atomic.Int64
	selfNS  atomic.Int64
}

// span is one recorded interval: the sampled queries' layer crossings and
// every re-score, end-of-day and mine call. Times are ns since the
// ledger's base; Req ties the spans of one query (its sequence number,
// -1 for spans outside any sampled query).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    int64  `json:"req"`
}

// frame is one open interval on the runner lane's stack.
type frame struct {
	id       timerID
	start    int64
	childNS  int64
	spanID   int // 0 when the interval is not recorded as a span
	recorded bool
	req      int64
}

// ledger prices the layers of one traced run. The runner lane — the
// goroutine that runs the ingest Runner (or the load generator) — keeps a
// stack of open intervals, so a seam's self time is its duration minus
// the time its children on the same lane covered. Seams that run on other
// goroutines (parallel resolver workers, the UDP listener, the scoring
// engine) are leaves: they add to their timers atomically and never touch
// the stack.
type ledger struct {
	now    func() int64
	timers [nTimers]timer
	stack  []frame

	sampleEvery int64 // record the spans of every Nth query
	req         int64 // sampled query in flight, or -1
	spans       []span
	lastSpan    int
	always      [nTimers]bool // seams recorded as spans on every call
}

// newLedger returns a ledger reading the benchmark's monotonic clock.
func newLedger(sampleEvery int64) *ledger {
	l := &ledger{
		now:         mono,
		sampleEvery: sampleEvery,
		req:         -1,
	}
	for _, id := range []timerID{tRescore, tEndDay, tByName, tBuildTree, tMine} {
		l.always[id] = true
	}
	return l
}

// begin opens an interval on the runner lane.
func (l *ledger) begin(id timerID) {
	f := frame{id: id, start: l.now(), req: l.req}
	if l.req >= 0 || l.always[id] {
		l.lastSpan++
		f.recorded = true
		f.spanID = l.lastSpan
	}
	l.stack = append(l.stack, f)
}

// end closes the innermost open interval, charging its duration to its
// timer and to its parent's child time.
func (l *ledger) end() {
	n := len(l.stack) - 1
	f := l.stack[n]
	l.stack = l.stack[:n]
	d := l.now() - f.start
	t := &l.timers[f.id]
	t.calls.Add(1)
	t.totalNS.Add(d)
	t.selfNS.Add(d - f.childNS)
	parent := 0
	if n > 0 {
		l.stack[n-1].childNS += d
		parent = l.stack[n-1].spanID
	}
	if f.recorded {
		l.spans = append(l.spans, span{ID: f.spanID, Parent: parent,
			Name: timerNames[f.id], Start: f.start, End: f.start + d, Req: f.req})
	}
}

// leaf charges one interval from a goroutine other than the runner lane's.
func (l *ledger) leaf(id timerID, start int64) {
	d := l.now() - start
	t := &l.timers[id]
	t.calls.Add(1)
	t.totalNS.Add(d)
	t.selfNS.Add(d)
}

// self is a seam's accumulated self time in ns.
func (l *ledger) self(id timerID) int64 { return l.timers[id].selfNS.Load() }

// calls is a seam's call count.
func (l *ledger) calls(id timerID) int64 { return l.timers[id].calls.Load() }

// perCall is a seam's mean total time per call in ns (0 without calls).
func (l *ledger) perCall(id timerID) float64 {
	c := l.timers[id].calls.Load()
	if c == 0 {
		return 0
	}
	return float64(l.timers[id].totalNS.Load()) / float64(c)
}

// writeSpans writes the recorded spans as one JSON document.
func (l *ledger) writeSpans(path string) error {
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
