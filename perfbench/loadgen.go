package main

import (
	"errors"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// epoch anchors every timestamp the benchmark records, so the load
// generator's sends and the traced server's probes share one clock.
var epoch = time.Now()

func mono() int64 { return int64(time.Since(epoch)) }

// paceTick is the load generator's send tick: each tick's queries are due
// at the tick's start and go out back to back when the sender wakes.
// The sender sleeps in nanosleep, which wakes about 60 us late here;
// time.Sleep would wake a millisecond late.
const paceTick = 200 * time.Microsecond

// schedule is the open-loop send plan for one rate step: query i is due
// at due[i] ns after the step starts. Queries are spread evenly over
// fixed ticks, so a tick carries rate*paceTick queries (rounded so the
// cumulative count tracks the rate exactly).
func schedule(rate float64, n int) []int64 {
	due := make([]int64, n)
	per := rate * paceTick.Seconds()
	for i := range due {
		due[i] = int64(float64(i)/per) * int64(paceTick)
	}
	return due
}

// matchSeq returns the sequence number of the most recent send carrying
// DNS ID id, given that sends 0..sent-1 went out with ID uint16(seq).
// A reply is always matched to the newest send of its ID, so a lost
// packet cannot make a later same-ID reply read as a 65536-sends-old
// answer. It returns -1 when no send carried the ID yet.
func matchSeq(id uint16, sent int64) int64 {
	if sent <= 0 {
		return -1
	}
	last := sent - 1
	seq := last - int64(uint16(uint16(last)-id))
	if seq < 0 {
		return -1
	}
	return seq
}

// answer is the header of the response a query must get.
type answer struct {
	rcode   uint8
	ancount uint16
}

// headerOf reads QR, RCODE and ANCOUNT from a wire response.
func headerOf(b []byte) (qr bool, a answer, ok bool) {
	if len(b) < 12 {
		return false, answer{}, false
	}
	return b[2]&0x80 != 0, answer{rcode: b[3] & 0x0f, ancount: uint16(b[6])<<8 | uint16(b[7])}, true
}

// stepResult is one open-loop step: per-query due, send and receive
// times (ns after the step start; recv 0 = never answered correctly).
type stepResult struct {
	due, send, recv []int64
	wrong           int64         // wrong answers, replies to nothing sent, second replies
	t0              int64         // step start on the epoch clock
	first           int64         // request id of the step's first query: ids run on across steps
	cpu             time.Duration // process CPU over the step
	answered        int
}

// latencies returns, over answered queries, the time from due to reply
// (us), from the actual send to reply (us), and how late each send went
// out against its due time (us).
func (s *stepResult) latencies() (fromDue, rtt, late []float64) {
	for i, r := range s.recv {
		late = append(late, float64(s.send[i]-s.due[i])/1e3)
		if r == 0 {
			continue
		}
		fromDue = append(fromDue, float64(r-s.due[i])/1e3)
		rtt = append(rtt, float64(r-s.send[i])/1e3)
	}
	return fromDue, rtt, late
}

// lost is the number of queries never answered (wrong answers count).
func (s *stepResult) lost() int { return len(s.recv) - s.answered }

// seqAt returns the newest sequence number carrying id that was sent at
// or before t (epoch ns), for joining server-side probes to sends.
func (s *stepResult) seqAt(id uint16, t int64) int64 {
	sent := sort.Search(len(s.send), func(i int) bool { return s.t0+s.send[i] > t })
	return matchSeq(id, int64(sent))
}

// loadgen offers open-loop load from one process: one sender goroutine,
// one receiver goroutine and one socket per step.
type loadgen struct {
	addr    *net.UDPAddr
	queries [][]byte // wire queries, ID 0
	expect  []answer
	base    int   // rotates the query window between steps
	sent    int64 // queries sent by earlier steps
}

// step sends n = rate*dur queries on the fixed-tick schedule and collects
// the replies, checking each against the expected answer header.
func (g *loadgen) step(rate float64, dur time.Duration) (*stepResult, error) {
	conn, err := net.DialUDP("udp", nil, g.addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(4 << 20)

	n := int(rate * dur.Seconds())
	s := &stepResult{due: schedule(rate, n), send: make([]int64, n), recv: make([]int64, n)}
	s.first = g.sent
	g.sent += int64(n)
	base := g.base
	g.base = (g.base + n) % len(g.queries)
	tpl := func(seq int64) int { return (base + int(seq)) % len(g.queries) }
	var (
		sent, settled atomic.Int64 // settled: replies matched to a send
		wg            sync.WaitGroup
	)
	s.t0 = mono()
	cpu0 := cpuTime()
	wg.Add(1)
	go func() { // receiver
		defer wg.Done()
		buf := make([]byte, 4096)
		for {
			nr, err := conn.Read(buf)
			now := mono() - s.t0
			if err != nil {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					return
				}
				continue
			}
			qr, got, ok := headerOf(buf[:nr])
			seq := int64(-1)
			if ok {
				seq = matchSeq(uint16(buf[0])<<8|uint16(buf[1]), sent.Load())
			}
			switch {
			case seq < 0 || s.recv[seq] != 0:
				s.wrong++
			case !qr || got != g.expect[tpl(seq)]:
				s.wrong++
				settled.Add(1)
			default:
				s.recv[seq] = now
				s.answered++
				settled.Add(1)
			}
		}
	}()

	out := make([]byte, 512)
	for i := 0; i < n; {
		if wait := s.due[i] - (mono() - s.t0); wait > 0 {
			ts := syscall.NsecToTimespec(wait)
			_ = syscall.Nanosleep(&ts, nil)
		}
		now := mono() - s.t0
		for ; i < n && s.due[i] <= now; i++ {
			q := g.queries[tpl(int64(i))]
			b := append(out[:0], q...)
			b[0], b[1] = byte(uint16(i)>>8), byte(uint16(i))
			s.send[i] = mono() - s.t0
			sent.Store(int64(i) + 1) // before the write: the reply may beat Write's return
			_, _ = conn.Write(b)     // a failed send is never answered: it counts as lost
		}
	}
	// Drain: wait for the stragglers, then unblock the receiver.
	deadline := time.Now().Add(200 * time.Millisecond)
	for settled.Load() < int64(n) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	_ = conn.SetReadDeadline(time.Now())
	wg.Wait()
	s.cpu = cpuTime() - cpu0
	return s, nil
}
