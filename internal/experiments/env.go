// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the index). Each experiment is a function
// returning a typed result with a Render method that prints the same rows
// or series the paper reports.
//
// All experiments run on the same substrate: a simulated namespace
// (workload.Registry), its authoritative server, a recursive resolver
// cluster, and a traffic generator — scaled by a Scale so that tests and
// benches run in milliseconds while the CLI reproduces full-size runs.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"dnsnoise/internal/authority"
	"dnsnoise/internal/chrstat"
	"dnsnoise/internal/dnsname"
	"dnsnoise/internal/ingest"
	"dnsnoise/internal/qlog"
	"dnsnoise/internal/resolver"
	"dnsnoise/internal/workload"
)

// Scale sizes a simulation run.
type Scale struct {
	Seed               int64
	NonDisposableZones int
	DisposableZones    int
	HostsPerZoneMax    int
	Clients            int
	BaseEventsPerDay   int
	Servers            int
	CacheSize          int
	// QueryLog, when non-nil, attaches the query-level event log to the
	// environment's cluster and day runner (see internal/qlog). It never
	// changes an experiment's output, only what is observable about it.
	QueryLog *qlog.Log
}

// Small returns the test/bench scale: a few seconds for the full suite.
func Small() Scale {
	return Scale{
		Seed:               1,
		NonDisposableZones: 300,
		DisposableZones:    80,
		HostsPerZoneMax:    48,
		Clients:            500,
		BaseEventsPerDay:   60_000,
		Servers:            2,
		CacheSize:          1 << 15,
	}
}

// Default returns the full experiment scale used by the CLI.
func Default() Scale {
	return Scale{
		Seed:               1,
		NonDisposableZones: 900,
		DisposableZones:    398,
		HostsPerZoneMax:    128,
		Clients:            5000,
		BaseEventsPerDay:   200_000,
		Servers:            4,
		CacheSize:          1 << 16,
	}
}

// Env bundles the simulation components for a sequence of day runs. The
// resolver caches persist across days, like a production cluster.
type Env struct {
	Scale     Scale
	Registry  *workload.Registry
	Authority *authority.Server
	Cluster   *resolver.Cluster
	Generator *workload.Generator
	Suffixes  *dnsname.Suffixes
}

// EnvOption adjusts environment construction.
type EnvOption func(*envConfig)

type envConfig struct {
	resolverOpts  []resolver.Option
	signedOrigins map[string]bool
}

// WithResolverOptions appends options to the resolver cluster.
func WithResolverOptions(opts ...resolver.Option) EnvOption {
	return func(c *envConfig) { c.resolverOpts = append(c.resolverOpts, opts...) }
}

// WithSignedZones DNSSEC-signs the listed zone origins.
func WithSignedZones(origins map[string]bool) EnvOption {
	return func(c *envConfig) { c.signedOrigins = origins }
}

// NewEnv builds a ready-to-run environment.
func NewEnv(scale Scale, opts ...EnvOption) (*Env, error) {
	var cfg envConfig
	for _, o := range opts {
		o(&cfg)
	}
	reg := workload.NewRegistry(workload.RegistryConfig{
		Seed:               scale.Seed,
		NonDisposableZones: scale.NonDisposableZones,
		DisposableZones:    scale.DisposableZones,
		HostsPerZoneMax:    scale.HostsPerZoneMax,
	})
	var signerRand *rand.Rand
	if len(cfg.signedOrigins) > 0 {
		signerRand = rand.New(rand.NewSource(scale.Seed + 1))
	}
	auth, err := reg.BuildAuthority(signerRand, cfg.signedOrigins)
	if err != nil {
		return nil, fmt.Errorf("build authority: %w", err)
	}
	resolverOpts := []resolver.Option{
		resolver.WithServers(scale.Servers),
		resolver.WithCacheSize(scale.CacheSize),
	}
	if scale.QueryLog != nil {
		resolverOpts = append(resolverOpts, resolver.WithQueryLog(scale.QueryLog))
	}
	resolverOpts = append(resolverOpts, cfg.resolverOpts...)
	cluster, err := resolver.NewCluster(auth, resolverOpts...)
	if err != nil {
		return nil, fmt.Errorf("build cluster: %w", err)
	}
	gen := workload.NewGenerator(reg, workload.GeneratorConfig{
		Seed:             scale.Seed + 2,
		Clients:          scale.Clients,
		BaseEventsPerDay: scale.BaseEventsPerDay,
	})
	return &Env{
		Scale:     scale,
		Registry:  reg,
		Authority: auth,
		Cluster:   cluster,
		Generator: gen,
		Suffixes:  dnsname.DefaultSuffixes(),
	}, nil
}

// RunDay simulates one profile-calibrated day, returning a fresh per-day
// collector. Extra taps observe alongside it (below side first, above side
// second); pass nil for none. The day is driven through the ingest runner
// (generator source, single window), which preserves the pre-ingest
// semantics exactly: the window collector observes before the extra taps,
// and resolution stops at the first error.
func (e *Env) RunDay(p workload.Profile, extraBelow, extraAbove resolver.Tap) (*chrstat.Collector, error) {
	return e.runDay(p, extraBelow, extraAbove)
}

// RunDayParallel is RunDay driven through the cluster's per-server worker
// goroutines: the runner pulls the generator's stream on this goroutine —
// there is no producer goroutine to leak — while one worker per simulated
// server resolves its shard. The per-day CHR accounting lands in a sharded
// collector merged after the run, so the returned Collector matches a
// sequential RunDay of the same seeded day (see resolver.Stream for the
// ordering argument). Extra taps observe from concurrent workers and must
// be safe for concurrent use.
func (e *Env) RunDayParallel(p workload.Profile, extraBelow, extraAbove resolver.Tap) (*chrstat.Collector, error) {
	return e.runDay(p, extraBelow, extraAbove, ingest.WithParallel())
}

func (e *Env) runDay(p workload.Profile, extraBelow, extraAbove resolver.Tap, opts ...ingest.Option) (*chrstat.Collector, error) {
	var out *chrstat.Collector
	if e.Scale.QueryLog != nil {
		opts = append(opts, ingest.WithQueryLog(e.Scale.QueryLog))
	}
	opts = append(opts,
		ingest.WithSingleWindow(),
		ingest.WithSinks(ingest.TapSink(extraBelow, extraAbove)),
		ingest.OnWindow(func(w ingest.Window) error {
			out = w.Collector
			return nil
		}),
	)
	runner := ingest.NewRunner(e.Cluster, opts...)
	if err := runner.Run(ingest.NewGeneratorSource(e.Generator, p)); err != nil {
		return nil, fmt.Errorf("day %s: %w", p.Label, err)
	}
	return out, nil
}

// GoogleNames matches names under google.com.
func GoogleNames(name string) bool {
	return dnsname.IsSubdomainOf(name, "google.com")
}

// AkamaiNames matches names under the registry's CDN zones (the paper's
// Akamai footnote lists eight 2LDs; the registry mirrors that set).
func AkamaiNames(name string) bool {
	for _, zone := range []string{
		"akamai.net", "akamaiedge.net", "akamaihd.net", "edgesuite.net",
		"akadns.net", "cloudshard.net",
	} {
		if dnsname.IsSubdomainOf(name, zone) {
			return true
		}
	}
	return false
}

// renderTable formats rows with aligned columns for terminal output.
func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// dateAt returns midnight UTC of 2011-12-01 plus day offset, anchoring the
// multi-day December experiments.
func dateAt(offset int) time.Time {
	return time.Date(2011, 11, 28, 0, 0, 0, 0, time.UTC).AddDate(0, 0, offset)
}
