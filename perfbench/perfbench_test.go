package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/udptransport"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the rule must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n, want, pct int
		value        float64
		ok           bool
	}{
		{95, 90, 89, 85, true},    // 95 re-scores: p90 would leave 9 beyond
		{100, 90, 90, 90, true},   // exactly 10 beyond the 90th value
		{1000, 99, 99, 990, true}, // 10 beyond the 990th
		{999, 99, 98, 980, true},  // p99 leaves 9 beyond the 990th
		{20, 90, 50, 10, true},    // falls back to the median
		{10, 90, 0, 0, false},     // no percentile has 10 beyond it
		{100000, 99, 99, 99000, true},
	} {
		pct, v, ok := tailPercentile(seq(tc.n), tc.want)
		if pct != tc.pct || v != tc.value || ok != tc.ok {
			t.Errorf("n=%d want p%d: got p%d=%v ok=%v, want p%d=%v ok=%v",
				tc.n, tc.want, pct, v, ok, tc.pct, tc.value, tc.ok)
		}
		if ok && tc.n-rankOf(float64(pct), tc.n) < minBeyond {
			t.Errorf("n=%d: p%d has fewer than %d samples beyond it", tc.n, pct, minBeyond)
		}
	}
}

func TestMatchSeqAcrossIDWrap(t *testing.T) {
	for _, tc := range []struct {
		id   uint16
		sent int64
		want int64
	}{
		{0, 0, -1},        // nothing sent
		{5, 3, -1},        // ID not used yet
		{2, 3, 2},         // plain match
		{0, 65536, 0},     // last send was 65535
		{0, 65537, 65536}, // wrapped: the newest send of ID 0
		{65535, 65537, 65535},
		{7, 3*65536 + 10, 3*65536 + 7},
		{11, 3*65536 + 10, 2*65536 + 11}, // ID 11 not reused in this lap yet
	} {
		if got := matchSeq(tc.id, tc.sent); got != tc.want {
			t.Errorf("matchSeq(%d, %d) = %d, want %d", tc.id, tc.sent, got, tc.want)
		}
	}
}

// A reply to a send whose earlier same-ID twin was lost must be matched
// to the newer send, so it reads as fresh rather than 65536 sends late.
func TestLostPacketDoesNotAgeALaterReply(t *testing.T) {
	const lost = 3
	sent := int64(lost + 65536 + 1) // the twin of the lost query went out
	if got := matchSeq(uint16(lost), sent); got != lost+65536 {
		t.Fatalf("reply matched to seq %d, want the newest send %d", got, lost+65536)
	}
}

func TestScheduleTicksAndLateness(t *testing.T) {
	// 10k qps over 200 us ticks: two queries per tick, due at the tick.
	due := schedule(10_000, 7)
	tick := int64(paceTick)
	if want := []int64{0, 0, tick, tick, 2 * tick, 2 * tick, 3 * tick}; !reflect.DeepEqual(due, want) {
		t.Fatalf("schedule = %v, want %v", due, want)
	}
	// 3k qps is 0.6 queries per tick: the cumulative count tracks the rate.
	due = schedule(3_000, 3000)
	if last := due[len(due)-1]; last < int64(0.99e9) || last > int64(1e9) {
		t.Fatalf("3000 queries at 3k qps end at %d ns, want about 1 s", last)
	}
	s := &stepResult{
		due:  []int64{0, 0, tick},
		send: []int64{50e3, 60e3, tick + 10e3},
		recv: []int64{150e3, 0, tick + 40e3},
	}
	s.answered = 2
	fromDue, rtt, late := s.latencies()
	if want := []float64{150, 40}; !reflect.DeepEqual(fromDue, want) {
		t.Errorf("latency from due = %v us, want %v", fromDue, want)
	}
	if want := []float64{100, 30}; !reflect.DeepEqual(rtt, want) {
		t.Errorf("rtt = %v us, want %v", rtt, want)
	}
	if want := []float64{50, 60, 10}; !reflect.DeepEqual(late, want) {
		t.Errorf("lateness = %v us, want %v (unanswered sends count too)", late, want)
	}
	if s.lost() != 1 {
		t.Errorf("lost = %d, want 1", s.lost())
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	var clock int64
	l := newLedger(0)
	l.now = func() int64 { return clock }
	l.begin(tResolver) // t=0
	clock = 10
	l.begin(tAuthority) // 10..40
	clock = 40
	l.end()
	clock = 45
	l.begin(tIntake) // 45..50
	clock = 50
	l.end()
	clock = 100
	l.end()
	l.req = 5 // a sampled query: every interval becomes a span
	l.begin(tEndDay)
	clock = 130
	l.begin(tPredict)
	clock = 140
	l.end()
	l.end()
	if got := l.self(tResolver); got != 100-30-5 {
		t.Errorf("resolver self = %d, want 65", got)
	}
	if got := l.self(tAuthority); got != 30 {
		t.Errorf("authority self = %d, want 30", got)
	}
	if got := l.self(tEndDay); got != 40-10 {
		t.Errorf("endday self = %d, want 30", got)
	}
	var sum int64
	for id := range l.timers {
		sum += l.self(timerID(id))
	}
	if sum != 140 {
		t.Errorf("self times sum to %d, want the 140 ns covered", sum)
	}
	if len(l.spans) != 2 || l.spans[0].Req != 5 || l.spans[0].Name != "mlearn.predict" || l.spans[0].Parent != l.spans[1].ID {
		t.Errorf("spans = %+v, want predict under endday", l.spans)
	}
}

// echoWire answers a query with itself, allocating nothing.
type echoWire struct{}

func (echoWire) AppendHandleWire(dst, q []byte) ([]byte, error) { return append(dst, q...), nil }

func TestTracedHandlerKeepsZeroAllocWirePath(t *testing.T) {
	wrap := func(w udptransport.WireHandler) udptransport.Handler {
		return &tracedHandler{wire: w, l: newLedger(0), probes: &probeRing{slots: make([]probe, 16)}}
	}
	wh, ok := wrap(echoWire{}).(udptransport.WireHandler)
	if !ok {
		t.Fatal("tracedHandler does not implement udptransport.WireHandler: the transport would fall back to its copying adapter")
	}
	q, err := dnsmsg.NewQuery(64, "example.com.", dnsmsg.TypeSOA).Encode() // ID 64: a sampled probe too
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 4096)
	if allocs := testing.AllocsPerRun(200, func() { _, _ = wh.AppendHandleWire(buf[:0], q) }); allocs != 0 {
		t.Fatalf("wrapped handler allocates %.1f per packet, want 0", allocs)
	}

	// Over the authority the wrapper answers identically.
	auth := authority.NewServer()
	zone, err := authority.NewZone("example.com.")
	if err != nil {
		t.Fatal(err)
	}
	if err := auth.AddZone(zone); err != nil {
		t.Fatal(err)
	}
	wh = wrap(auth).(udptransport.WireHandler)
	want, err := auth.HandleWire(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := wh.AppendHandleWire(buf, q); err != nil || string(got) != string(want) {
		t.Fatalf("wrapped answer differs from the authority's (err %v)", err)
	}
}

// BENCHMARK.json must declare exactly the metrics the program reports.
func TestBenchmarkSpecMatchesMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %+v, program reports %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program's table")
	}
}
