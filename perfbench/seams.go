package main

import (
	"sync/atomic"

	"dnsnoise/internal/ingest"
	"dnsnoise/internal/mlearn"
	"dnsnoise/internal/qlog"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/udptransport"
)

// The traced run wraps the program's public seams in these timers. Each
// wrapper either sits on the runner lane (the goroutine running the
// ingest Runner, where the ledger's stack nests them) or is a leaf timed
// from another goroutine.

// tracedSource times QuerySource.Next and opens the resolver interval
// the Runner fills until its next pull: resolving the query, tapping the
// window collector and the sinks, and any tick hook.
type tracedSource struct {
	src    ingest.QuerySource
	l      *ledger
	pulls  int64
	pauses int64
	open   bool // resolver interval open
	query  bool // sampled query root open
}

func (s *tracedSource) Next() (resolver.Query, error) {
	s.finish()
	if s.l.sampleEvery > 0 && s.pulls%s.l.sampleEvery == 0 {
		s.l.req = s.pulls
		s.l.begin(tQuery)
		s.query = true
	}
	s.pulls++
	s.l.begin(tIngest)
	q, err := s.src.Next()
	s.l.end()
	if err == ingest.ErrPause {
		s.pauses++
	}
	s.l.begin(tResolver)
	s.open = true
	return q, err
}

func (s *tracedSource) Close() error { return s.src.Close() }

// finish closes the open resolver interval and sampled query root. The
// Runner's work after the last pull (final window merge and hooks) stays
// inside the last resolver interval until the caller finishes it.
func (s *tracedSource) finish() {
	if s.open {
		s.l.end()
		s.open = false
	}
	if s.query {
		s.l.end()
		s.query = false
		s.l.req = -1
	}
}

// tracedUpstream times the resolver's exchanges with the authority.
type tracedUpstream struct {
	up     resolver.Upstream
	l      *ledger
	inline bool
}

func (u *tracedUpstream) HandleWire(q []byte) ([]byte, error) {
	if u.inline {
		u.l.begin(tAuthority)
		defer u.l.end()
		return u.up.HandleWire(q)
	}
	start := u.l.now()
	resp, err := u.up.HandleWire(q)
	u.l.leaf(tAuthority, start)
	return resp, err
}

// tracedSink times one persistent observation sink.
type tracedSink struct {
	sink   ingest.ObservationSink
	id     timerID
	l      *ledger
	inline bool
}

func (s *tracedSink) ObserveBelow(ob resolver.Observation) {
	if s.inline {
		s.l.begin(s.id)
		s.sink.ObserveBelow(ob)
		s.l.end()
		return
	}
	start := s.l.now()
	s.sink.ObserveBelow(ob)
	s.l.leaf(s.id, start)
}

func (s *tracedSink) ObserveAbove(ob resolver.Observation) {
	if s.inline {
		s.l.begin(s.id)
		s.sink.ObserveAbove(ob)
		s.l.end()
		return
	}
	start := s.l.now()
	s.sink.ObserveAbove(ob)
	s.l.leaf(s.id, start)
}

// tracedClassifier times every prediction the miners make.
type tracedClassifier struct {
	c      mlearn.Classifier
	l      *ledger
	inline bool
}

func (c *tracedClassifier) Fit(x [][]float64, y []bool) error { return c.c.Fit(x, y) }

func (c *tracedClassifier) PredictProb(sample []float64) (float64, error) {
	if c.inline {
		c.l.begin(tPredict)
		defer c.l.end()
		return c.c.PredictProb(sample)
	}
	start := c.l.now()
	p, err := c.c.PredictProb(sample)
	c.l.leaf(tPredict, start)
	return p, err
}

// probe is one server-side interval of a sampled serve query, recorded
// into a preallocated ring so the packet path stays allocation-free. The
// DNS ID links it to the load generator's send.
type probe struct {
	id         uint16
	seam       timerID
	start, end int64
}

// probeRing holds the sampled server-side intervals of a traced serve run.
type probeRing struct {
	n     atomic.Int64
	slots []probe
}

// sampled reports whether a query's DNS ID is in the fixed span sample.
func sampled(id uint16) bool { return id%spanSampleEvery == 0 }

func (r *probeRing) add(id uint16, seam timerID, start, end int64) {
	i := r.n.Add(1) - 1
	if int(i) < len(r.slots) {
		r.slots[i] = probe{id: id, seam: seam, start: start, end: end}
	}
}

// queryID reads a wire query's DNS ID (0 for runts).
func queryID(q []byte) uint16 {
	if len(q) < 2 {
		return 0
	}
	return uint16(q[0])<<8 | uint16(q[1])
}

// tracedHandler times the authority's wire answers on the serve path. It
// implements udptransport.WireHandler so the transport keeps its
// zero-copy AppendHandleWire path rather than the copying adapter.
type tracedHandler struct {
	wire   udptransport.WireHandler // the authority on the serve path
	l      *ledger
	probes *probeRing
}

var _ udptransport.WireHandler = (*tracedHandler)(nil)

func (h *tracedHandler) HandleWire(q []byte) ([]byte, error) {
	return h.AppendHandleWire(nil, q)
}

func (h *tracedHandler) AppendHandleWire(dst, q []byte) ([]byte, error) {
	start := h.l.now()
	resp, err := h.wire.AppendHandleWire(dst, q)
	h.l.leaf(tHandle, start)
	if id := queryID(q); sampled(id) {
		h.probes.add(id, tHandle, start, h.l.now())
	}
	return resp, err
}

// tracedScorer times one listener's live scorer and counts its verdicts.
type tracedScorer struct {
	s          udptransport.Scorer
	l          *ledger
	probes     *probeRing
	disposable *atomic.Int64
}

func (s *tracedScorer) ScoreWire(q []byte) qlog.Verdict {
	start := s.l.now()
	v := s.s.ScoreWire(q)
	s.l.leaf(tScore, start)
	if v == qlog.VerdictDisposable {
		s.disposable.Add(1)
	}
	if id := queryID(q); sampled(id) {
		s.probes.add(id, tScore, start, s.l.now())
	}
	return v
}

// tracedQlogSink times the query log's sink drains.
type tracedQlogSink struct {
	sink   qlog.Sink
	l      *ledger
	events atomic.Int64
}

func (s *tracedQlogSink) Consume(evs []qlog.Event) error {
	start := s.l.now()
	err := s.sink.Consume(evs)
	s.l.leaf(tQlog, start)
	s.events.Add(int64(len(evs)))
	return err
}

func (s *tracedQlogSink) Flush() error { return s.sink.Flush() }
