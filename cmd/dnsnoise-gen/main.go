// Command dnsnoise-gen generates a synthetic ISP DNS query trace (JSON
// lines) using the calibrated workload model. The trace carries ground-truth
// disposable labels so downstream tools can score the miner.
//
// The namespace is derived deterministically from -seed; replaying the
// trace (dnsnoise-mine -trace) must use the same seed and sizing flags so
// the authoritative side can answer the generated names.
//
// The pipeline is an ingest source→sink pump: the generator source feeds
// the trace writer directly, with no resolver in between. An -out name
// ending in ".gz" writes a gzip-compressed trace.
//
// Usage:
//
//	dnsnoise-gen -out trace.jsonl -profile december -days 1 -events 100000
package main

import (
	"flag"
	"fmt"
	"os"

	"dnsnoise/internal/ingest"
	"dnsnoise/internal/traceio"
	"dnsnoise/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dnsnoise-gen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dnsnoise-gen", flag.ContinueOnError)
	var (
		out      = fs.String("out", "trace.jsonl", "output trace file ('-' for stdout; '.gz' suffix compresses)")
		seed     = fs.Int64("seed", 1, "namespace and traffic seed")
		profile  = fs.String("profile", "december", "calibration profile: february, december, or dates (the six paper dates)")
		days     = fs.Int("days", 1, "number of consecutive days (ignored for -profile dates)")
		events   = fs.Int("events", 200_000, "base events per day before the profile's volume scale")
		clients  = fs.Int("clients", 5000, "client population")
		ndZones  = fs.Int("zones", 900, "non-disposable zone count")
		dispZn   = fs.Int("disposable-zones", 398, "disposable zone count")
		maxHosts = fs.Int("hosts-per-zone", 128, "maximum host pool per non-disposable zone")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *events < 1 {
		return fmt.Errorf("-events must be >= 1 (got %d)", *events)
	}

	reg := workload.NewRegistry(workload.RegistryConfig{
		Seed:               *seed,
		NonDisposableZones: *ndZones,
		DisposableZones:    *dispZn,
		HostsPerZoneMax:    *maxHosts,
	})
	gen := workload.NewGenerator(reg, workload.GeneratorConfig{
		Seed:             *seed + 2,
		Clients:          *clients,
		BaseEventsPerDay: *events,
	})

	profiles, err := workload.SelectProfiles(*profile, *days)
	if err != nil {
		return err
	}

	w, done, err := traceio.CreatePath(*out)
	if err != nil {
		return err
	}
	// One pump per profile so the per-day progress line lands between days.
	for _, p := range profiles {
		if _, err := ingest.Pump(ingest.NewGeneratorSource(gen, p), w); err != nil {
			done()
			return err
		}
		fmt.Fprintf(os.Stderr, "generated %s (%d events total)\n", p.Label, w.Count())
	}
	return done()
}
