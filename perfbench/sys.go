package main

import (
	"runtime"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set in MiB (getrusage reports
// KiB on Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memDelta is the Go runtime's allocation and GC work over one phase.
type memDelta struct {
	mallocs, bytes uint64
	gcs            uint32
	pauseNS        uint64
}

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC, pauseNS: ms.PauseTotalNs}
}

func (m memDelta) sub(o memDelta) memDelta {
	return memDelta{m.mallocs - o.mallocs, m.bytes - o.bytes, m.gcs - o.gcs, m.pauseNS - o.pauseNS}
}
