package main

import (
	"fmt"
	"time"

	"dnsnoise/internal/fleet"
	"dnsnoise/internal/ingest"
	"dnsnoise/internal/workload"
)

// Fleet-overhead scenario shape: each reading is a whole fleet run (fresh
// PoPs, fresh generator, one simulated day) on a small 3-PoP topology; the
// collector side sweeps far faster than any real deployment would to make
// the cost visible at all.
const (
	flPops         = 3
	flCollectEvery = 10 * time.Millisecond
)

// benchFleetConfig is the scenario's fleet: flPops PoPs over the
// test-scale namespace, sized so one run takes ~100ms.
func benchFleetConfig(events int) fleet.Config {
	return fleet.Config{
		Pops:    flPops,
		Servers: 2,
		Cache:   8192,
		Registry: workload.RegistryConfig{
			Seed:               1,
			NonDisposableZones: 60,
			DisposableZones:    30,
			HostsPerZoneMax:    16,
		},
		Generator: workload.GeneratorConfig{
			Seed:             3,
			Clients:          100,
			BaseEventsPerDay: events,
		},
		CollectEvery: flCollectEvery,
	}
}

// fleetRunNs runs one fresh fleet over one generated day and returns
// ns per resolved query, with the collector sweeping at flCollectEvery
// when withCollector is set. Only Run is timed; fleet construction and
// the merge-at-end views stay outside the clock.
func fleetRunNs(events int, withCollector bool) (float64, error) {
	f, err := fleet.New(benchFleetConfig(events))
	if err != nil {
		return 0, err
	}
	profiles, err := workload.SelectProfiles("december", 1)
	if err != nil {
		return 0, err
	}
	src := ingest.NewGeneratorSource(f.Generator(), profiles...)
	defer src.Close()
	if withCollector {
		f.Collector().Start()
		defer f.Collector().Stop()
	}
	start := time.Now()
	if err := f.Run(src, nil); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	var queries uint64
	for _, p := range f.Pops() {
		queries += p.Cluster.Stats().Queries
	}
	if queries == 0 {
		return 0, fmt.Errorf("fleet bench run resolved no queries")
	}
	return float64(elapsed.Nanoseconds()) / float64(queries), nil
}

// benchFleetOverhead prices the collector: the same fleet day with the
// sweep loop running at flCollectEvery versus not running at all. A
// production cadence of seconds costs a small fraction of even this
// reading.
func benchFleetOverhead(e *env) (overheadResult, error) {
	return pairedOverhead(ovPairs, wholeRunRounds, e.fleetEvents, wholeRunPair(func(withCollector bool) (float64, error) {
		return fleetRunNs(e.fleetEvents, withCollector)
	}))
}
