GO ?= go

.PHONY: all build test race determinism vet lint bench bench-smoke clean

all: build test vet lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full test suite under the race detector; the parallel resolver and
# experiment tests drive worker/tap/accumulator interleavings on purpose.
race:
	$(GO) test -race ./...

# Repeated, shuffled runs of the packages that pin byte-identical output
# or seq-vs-parallel equality, so a pin that depends on scheduling, test
# order or the wall clock fails here instead of intermittently elsewhere.
determinism:
	$(GO) test -count=5 -shuffle=on ./cmd/dnsnoise-exp/ ./cmd/dnsnoise-mine/ ./internal/resolver/ ./internal/ingest/ ./internal/cache/

vet:
	$(GO) vet ./...

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; fi

# Micro-benchmarks for the resolver hot path, then the cluster throughput
# harness, which records sequential-vs-parallel numbers (plus host CPU count)
# in BENCH_resolver.json for cross-commit comparison.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/resolver/...
	$(GO) run ./cmd/dnsnoise-bench -out BENCH_resolver.json

# Fast hot-path health check, cheap enough for CI: the resolver and cache
# micro-benchmarks at -benchtime=100x (smoke, not measurement) plus the
# allocation guards — testing.AllocsPerRun asserting 0 allocs/op on the
# cache-hit resolve path, LRU Get/Put refresh, Normalize fast paths, the
# UDP serve packet path, live scoring, and the resolve path with a tsdb
# sweeper attached — a short serve-throughput flood with the end-to-end
# packet-allocation gate (plain and scored), the streaming-miner
# intake-overhead pair, the tsdb-sweeper overhead pair, the cache sweep's
# hit-allocation gate and the fleet-collector overhead pair, each with its
# fixed gate.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkResolveCacheHit|BenchmarkResolveCacheMiss|BenchmarkPutGet|BenchmarkEvictionChurn' \
		-benchtime=100x -benchmem ./internal/resolver/ ./internal/cache/
	$(GO) test -run 'ZeroAlloc' -v ./internal/resolver/ ./internal/cache/ ./internal/dnsname/ ./internal/udptransport/ ./internal/livescore/ ./internal/telemetry/tsdb/
	$(GO) run ./cmd/dnsnoise-bench -only serve -serve-duration 200ms -serve-clients 4 -out /dev/null
	$(GO) run ./cmd/dnsnoise-bench -only miner -queries 20000 -out /dev/null
	$(GO) run ./cmd/dnsnoise-bench -only tsdb -queries 20000 -out /dev/null
	$(GO) run ./cmd/dnsnoise-bench -only cache -cache-events 20000 -cache-capacities 2048,8192 -out /dev/null
	$(GO) run ./cmd/dnsnoise-bench -only fleet -fleet-events 8000 -out /dev/null

clean:
	$(GO) clean ./...
	rm -f BENCH_resolver.json
