package main

import (
	"time"

	"dnsnoise/internal/resolver"
	"dnsnoise/internal/telemetry"
	"dnsnoise/internal/telemetry/alerts"
	"dnsnoise/internal/telemetry/tsdb"
)

// Tsdb-overhead scenario shape: each reading is a whole fresh run — an
// instrumented cluster warmed to steady state, then ovSegPasses all-hit
// passes over the day — with the tsdb sweeper + default-rules alert
// engine running at a pathological cadence on the instrumented side.
// Both sides carry a live telemetry registry, so the ratio prices the
// continuous-telemetry layer alone (sweep snapshots, ring appends,
// derived-series math, rule evaluation), not the instrumentation under
// it. The contract being checked: the sweeper reads the same lock-striped
// scrape path /metrics uses, so the resolve hot path never sees it.
const tsSweepEvery = 5 * time.Millisecond

// tsdbRunNs runs one measurement: ns per resolved query over ovSegPasses
// steady-state passes, with the sweep loop live when withTsdb is set.
// Only the passes are timed; construction, warmup, and sweeper teardown
// stay outside the clock.
func tsdbRunNs(qs []resolver.Query, withTsdb bool) (float64, error) {
	reg := telemetry.NewRegistry()
	c, err := newCluster(resolver.WithTelemetry(reg))
	if err != nil {
		return 0, err
	}
	// Warm: fills every cache, so the timed passes are all hits.
	if _, err := timePasses(c, qs, 1); err != nil {
		return 0, err
	}
	if withTsdb {
		db := tsdb.New(tsdb.Config{})
		eng := alerts.NewEngine(db, alerts.DefaultRules())
		sw := tsdb.NewSweeper(db, tsSweepEvery, reg.Snapshot)
		sw.OnSweep(eng.Eval)
		sw.Start()
		defer sw.Stop()
	}
	return timePasses(c, qs, ovSegPasses)
}

// benchTsdbOverhead prices continuous telemetry end to end: the same
// steady-state day with the tsdb sweeper and alert engine at tsSweepEvery
// versus without. A production -tsdb-interval of a second sweeps 200x
// less often than this reading.
func benchTsdbOverhead(e *env) (overheadResult, error) {
	return pairedOverhead(ovPairs, wholeRunRounds, len(e.qs), wholeRunPair(func(withTsdb bool) (float64, error) {
		return tsdbRunNs(e.qs, withTsdb)
	}))
}
