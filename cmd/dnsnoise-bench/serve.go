// The serve-throughput scenario drives the UDP front door end to end:
// real sockets on loopback, concurrent clients flooding workload-shaped
// queries at a udptransport.Serve instance, measuring achieved qps and
// response-time percentiles across the listener/batch matrix. A separate
// packet-allocation gate prices the whole serve path — syscall layer
// included — by Mallocs delta over a packet flood against an echo handler.
package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"dnsnoise/internal/core"
	"dnsnoise/internal/dnsmsg"
	"dnsnoise/internal/livescore"
	"dnsnoise/internal/telemetry"
	"dnsnoise/internal/udptransport"
	"dnsnoise/internal/workload"
)

// serveResult is one cell of the serve-throughput matrix.
type serveResult struct {
	Listeners  int     `json:"listeners"`
	Batch      int     `json:"batch"`
	Clients    int     `json:"clients"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seconds    float64 `json:"seconds"`
	Sent       uint64  `json:"sent"`
	Received   uint64  `json:"received"`
	Dropped    uint64  `json:"dropped"`
	QPS        float64 `json:"qps"`
	DropRate   float64 `json:"drop_rate"`
	P50Us      float64 `json:"p50_us"`
	P99Us      float64 `json:"p99_us"`
}

// servePacketAlloc is the end-to-end allocation price of one served
// packet: total process Mallocs delta over a flood divided by packets,
// covering the recv/dispatch/send loop that the in-package AllocsPerRun
// guards can only measure up to the socket boundary.
type servePacketAlloc struct {
	Packets     int     `json:"packets"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// serveWorkload builds the serving-side authority and a pre-encoded query
// set shaped like the simulated namespace: finite host pools for the
// non-disposable zones, freshly minted disposable labels for the rest.
func serveWorkload(queries int) (*workload.Registry, [][]byte, error) {
	reg := workload.NewRegistry(workload.RegistryConfig{
		Seed: 7, NonDisposableZones: 60, DisposableZones: 20, HostsPerZoneMax: 24,
	})
	zones := reg.AllZones()
	rng := rand.New(rand.NewSource(11))
	wires := make([][]byte, 0, queries)
	for i := 0; i < queries; i++ {
		name, qtype := zones[i%len(zones)].NextName(rng)
		w, err := dnsmsg.NewQuery(uint16(i+1), name, qtype).Encode()
		if err != nil {
			return nil, nil, err
		}
		wires = append(wires, w)
	}
	return reg, wires, nil
}

// benchServe runs one matrix cell: a front door with the given listener
// and batch configuration, flooded by `clients` goroutines for `dur`,
// each on its own socket with a per-query response deadline. An attempt
// that sees no matching response within the deadline counts as dropped.
func benchServe(auth udptransport.Handler, listeners, batch, clients int, dur time.Duration, wires [][]byte) (serveResult, error) {
	srv, err := udptransport.Serve(auth, "127.0.0.1:0",
		udptransport.WithListeners(listeners), udptransport.WithBatch(batch))
	if err != nil {
		return serveResult{}, err
	}
	defer srv.Close()

	type clientStats struct {
		sent, received, dropped uint64
		latUs                   []float64
		err                     error
	}
	stats := make([]clientStats, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			st := &stats[id]
			conn, err := net.Dial("udp", srv.Addr())
			if err != nil {
				st.err = err
				return
			}
			defer conn.Close()
			scratch := make([]byte, maxServePacket)
			buf := make([]byte, maxServePacket)
			var qid uint16
			for i := id; time.Now().Before(deadline); i += clients {
				wire := wires[i%len(wires)]
				qid++
				copy(scratch, wire)
				scratch[0], scratch[1] = byte(qid>>8), byte(qid)
				sendAt := time.Now()
				if _, err := conn.Write(scratch[:len(wire)]); err != nil {
					st.err = err
					return
				}
				st.sent++
				_ = conn.SetReadDeadline(sendAt.Add(serveReadTimeout))
				ok := false
				for {
					n, err := conn.Read(buf)
					if err != nil {
						break // deadline: dropped
					}
					if n >= 2 && uint16(buf[0])<<8|uint16(buf[1]) == qid {
						ok = true
						break
					}
					// A straggler from a dropped earlier query; keep reading.
				}
				if !ok {
					st.dropped++
					continue
				}
				st.received++
				st.latUs = append(st.latUs, float64(time.Since(sendAt).Microseconds()))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	res := serveResult{
		Listeners:  srv.Listeners(),
		Batch:      srv.Batch(),
		Clients:    clients,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seconds:    elapsed,
	}
	var lat []float64
	for i := range stats {
		if stats[i].err != nil {
			return res, stats[i].err
		}
		res.Sent += stats[i].sent
		res.Received += stats[i].received
		res.Dropped += stats[i].dropped
		lat = append(lat, stats[i].latUs...)
	}
	if elapsed > 0 {
		res.QPS = float64(res.Received) / elapsed
	}
	if res.Sent > 0 {
		res.DropRate = float64(res.Dropped) / float64(res.Sent)
	}
	sort.Float64s(lat)
	res.P50Us = percentile(lat, 0.50)
	res.P99Us = percentile(lat, 0.99)
	return res, nil
}

const (
	maxServePacket   = 4096
	serveReadTimeout = 250 * time.Millisecond
	// serveAllocPackets sizes the packet flood behind the packet-allocation
	// gate: large enough that stray runtime allocations (timers, the odd
	// background goroutine) round away, small enough for CI smoke runs.
	serveAllocPackets = 50_000
	serveAllocWarmup  = 2_000
)

// percentile reads the p-th quantile from sorted xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	idx := int(p * float64(len(xs)))
	if idx >= len(xs) {
		idx = len(xs) - 1
	}
	return xs[idx]
}

// measureServe runs the listener/batch comparison the front door is
// about — 1 vs min(GOMAXPROCS,4) listeners, single-packet vs batched
// syscalls (on single-core hosts only the batch axis is informative, so
// the matrix collapses to its first row pair) — then both packet-alloc
// floods.
func measureServe(e *env, _ *telemetry.Span) error {
	reg, wires, err := serveWorkload(4096)
	if err != nil {
		return fmt.Errorf("serve workload: %w", err)
	}
	auth, err := reg.BuildAuthority(nil, nil)
	if err != nil {
		return fmt.Errorf("serve authority: %w", err)
	}
	maxL := min(runtime.GOMAXPROCS(0), 4)
	batch := udptransport.DefaultBatch
	cells := [][2]int{{1, 1}, {1, batch}}
	if maxL > 1 {
		cells = append(cells, [2]int{maxL, 1}, [2]int{maxL, batch})
	}
	for _, cell := range cells {
		res, err := benchServe(auth, cell[0], cell[1], e.serveClients, e.serveDuration, wires)
		if err != nil {
			return fmt.Errorf("serve %d listeners batch %d: %w", cell[0], cell[1], err)
		}
		e.rep.ServeThroughput = append(e.rep.ServeThroughput, res)
	}
	alloc, err := benchServePacketAlloc(false)
	if err != nil {
		return fmt.Errorf("serve alloc: %w", err)
	}
	scored, err := benchServePacketAlloc(true)
	if err != nil {
		return fmt.Errorf("scored serve alloc: %w", err)
	}
	e.rep.ServePacketAlloc, e.rep.ServePacketAllocScored = &alloc, &scored
	return nil
}

// printServe renders the serve matrix and the packet-alloc readings.
func printServe(rep *report) {
	for _, r := range rep.ServeThroughput {
		fmt.Printf("serve %dL/%db:  %8.0f qps, p50 %6.0f us, p99 %6.0f us, drop %.2f%% (%d clients)\n",
			r.Listeners, r.Batch, r.QPS, r.P50Us, r.P99Us, 100*r.DropRate, r.Clients)
	}
	fmt.Printf("serve alloc: %.3f allocs/op, %.1f B/op end to end (%d packets)\n",
		rep.ServePacketAlloc.AllocsPerOp, rep.ServePacketAlloc.BytesPerOp, rep.ServePacketAlloc.Packets)
	fmt.Printf("scored alloc: %.3f allocs/op, %.1f B/op end to end (%d packets)\n",
		rep.ServePacketAllocScored.AllocsPerOp, rep.ServePacketAllocScored.BytesPerOp, rep.ServePacketAllocScored.Packets)
}

// echoWire is the zero-allocation handler behind the packet-alloc gate:
// the response is the query with QR set, appended into the transport's
// own buffer, so every measured allocation belongs to the serve path.
type echoWire struct{}

func (echoWire) HandleWire(query []byte) ([]byte, error) {
	out := make([]byte, len(query))
	copy(out, query)
	out[2] |= 0x80
	return out, nil
}

func (echoWire) AppendHandleWire(dst, query []byte) ([]byte, error) {
	dst = append(dst, query...)
	dst[2] |= 0x80
	return dst, nil
}

// benchServePacketAlloc floods a default-configuration front door from a
// single connected socket and reports process-wide Mallocs per packet.
// The client loop is itself allocation-free (preallocated buffers, no
// per-attempt state), so a nonzero reading implicates the serve path.
// With scored set, every packet additionally runs through a livescore
// scorer backed by a primed streaming pipeline — the -score serve path —
// whose verdict lookup and name staging must stay allocation-free too.
// The engine runs intake-only (no wall-clock re-score): its drain
// goroutine's few string materializations amortize to zero over the
// flood, exactly as they do on a real server between re-scores.
func benchServePacketAlloc(scored bool) (servePacketAlloc, error) {
	res := servePacketAlloc{Packets: serveAllocPackets}
	opts := []udptransport.ServerOption{}
	if scored {
		pipe, err := benchPipeline(1)
		if err != nil {
			return res, err
		}
		// Prime the zone above the flooded name so every packet takes the
		// disposable-hit path, the most work the lookup ever does.
		pipe.Prime([]core.Finding{{Zone: "bench.test", Depth: 3, Confidence: 0.99}})
		eng := livescore.NewEngine(pipe)
		eng.Start(0)
		defer eng.Close()
		opts = append(opts, udptransport.WithScorer(
			func(int) udptransport.Scorer { return eng.NewScorer() }))
	}
	srv, err := udptransport.Serve(echoWire{}, "127.0.0.1:0", opts...)
	if err != nil {
		return res, err
	}
	defer srv.Close()
	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		return res, err
	}
	defer conn.Close()

	wire, err := dnsmsg.NewQuery(1, "alloc.bench.test", dnsmsg.TypeA).Encode()
	if err != nil {
		return res, err
	}
	buf := make([]byte, maxServePacket)
	exchange := func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := conn.Write(wire); err != nil {
				return err
			}
			_ = conn.SetReadDeadline(time.Now().Add(time.Second))
			if _, err := conn.Read(buf); err != nil {
				return fmt.Errorf("packet %d: %w", i, err)
			}
		}
		return nil
	}
	if err := exchange(serveAllocWarmup); err != nil {
		return res, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := exchange(serveAllocPackets); err != nil {
		return res, err
	}
	runtime.ReadMemStats(&after)
	res.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(serveAllocPackets)
	res.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(serveAllocPackets)
	return res, nil
}

// checkServeGate fails the serve scenario when a matrix cell got no reply
// at all, or when either packet-allocation reading exceeds maxAllocs.
func checkServeGate(rep *report, maxAllocs int64) error {
	for _, c := range rep.ServeThroughput {
		if c.Received == 0 {
			return fmt.Errorf("%w: serve %dL/%db received no replies (%d sent)", errGate, c.Listeners, c.Batch, c.Sent)
		}
	}
	if err := checkPacketAllocGate("serve packet path", *rep.ServePacketAlloc, maxAllocs); err != nil {
		return err
	}
	return checkPacketAllocGate("scored serve packet path", *rep.ServePacketAllocScored, maxAllocs)
}

// checkPacketAllocGate enforces a packet-allocation ceiling. Readings are
// rounded to the nearest whole allocation first: a handful of stray
// runtime allocations across tens of thousands of packets is measurement
// floor, a systematic per-packet allocation is not.
func checkPacketAllocGate(what string, alloc servePacketAlloc, maxAllocs int64) error {
	if rounded := math.Round(alloc.AllocsPerOp); rounded > float64(maxAllocs) {
		return fmt.Errorf("%w: %s allocates %.3f allocs/op (%.1f B/op), max %d",
			errGate, what, alloc.AllocsPerOp, alloc.BytesPerOp, maxAllocs)
	}
	return nil
}
