# Developer entry points. CI runs `make race` as the concurrency gate and
# `make bench-smoke` to catch hot-path regressions without full benchmark
# runtimes.

GO ?= go

# Chaos sweep width (seeds), per-target fuzz budget for fuzz-smoke, and
# repeats per machine shape for flake.
CHAOS_SEEDS ?= 50
FUZZTIME ?= 30s
FLAKE_COUNT ?= 5

.PHONY: all build test race bench bench-build bench-smoke vet lint lint-fixtures govulncheck examples chaos flake fuzz-smoke obs-smoke audit cross

# Pinned govulncheck version: reproducible scans, no surprise tool updates.
GOVULNCHECK_VERSION ?= v1.1.3

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The repo's own analyzers (see internal/analysis and DESIGN.md
# "Statically enforced invariants"): vet first, then lmplint over the
# whole tree, tests included. Fails on any unsuppressed finding. One
# lmplint invocation performs a single `go list -export` load and builds
# one interprocedural summary shared by every analyzer — do not split
# this into per-analyzer runs, each would repeat the load.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/lmplint ./...

# The analyzers' own test suites: every `// want` fixture under
# internal/analysis/*/testdata, plus the call-graph/summary/loader unit
# tests. Run standalone when iterating on an analyzer; `make race` runs
# it as part of the gate.
lint-fixtures:
	$(GO) test ./internal/analysis/...

# The concurrency gate: the static invariants plus the full suite
# (including the reader/writer/migration stress test) under the race
# detector — shuffled, so order-dependent tests cannot hide — then a
# widened chaos sweep (which includes the cache-coherence property
# test, so the page cache and write combiner run under -race on every
# gate). Perf is measured separately, by the repo benchmark: see
# bench/README.md for the protocol a claim has to follow.
race: lint lint-fixtures bench-build cross
	$(GO) test -race -shuffle=on ./...
	$(MAKE) chaos
	$(MAKE) obs-smoke

# Seeded chaos sweep over the pool: the one chaos driver
# (internal/core/chaos_test.go) runs every row of its table — e2e, cache,
# cache-flaps, physical, repair — with CheckInvariants before every op;
# every seed runs twice and must produce an identical trace and zero
# divergence from the shadow model, and each row must show every op and
# fault kind taking effect. Beside it run the elasticity property test and
# the concurrent repair test. Replay a failure with CHAOS_SEED=<n> (the
# failure report prints the command). The 50-seed sweep takes about 7
# minutes under -race on a two-core box, ~270 s of it the driver's rows
# and most of the rest the elasticity test: the 30m timeout leaves room.
chaos:
	CHAOS_SEEDS=$(CHAOS_SEEDS) $(GO) test -race -timeout 30m -run 'TestChaos' ./internal/core/

# The chaos driver's sweeps: one test per group of its rows.
CHAOS_DRIVER = TestChaosPoolPropertySweep|TestChaosCacheCoherence|TestChaosPhysicalSweep|TestChaosRepairDeterministicReplay|TestChaosLenderSweep

# bench/ is its own module (BENCHMARK.json builds it from its checkout),
# so `go build ./... && go test ./...` at the root never compiles it:
# this is the only gate that notices when a change here removes or
# renames something the benchmark harness uses.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# memnode backs lent memory with an anonymous mapping on Linux and with
# a plain slice elsewhere (internal/memnode/backing_*.go): build the
# tree for one non-Linux unix and vet memnode for a non-unix, so the
# file this box never runs cannot rot. Standard library only: works
# offline.
cross:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=windows $(GO) vet ./internal/memnode/

# Machine-shape gate for the transport, the pool's admission/tail path
# and the block mover under compaction: the rpc and daemon suites and
# core's admission, in-flight, tail, circuit-breaker, compaction,
# elasticity and translate-during-migration tests, shuffled and
# repeated, under each GOMAXPROCS a CI box or a laptop is likely to have. A test that reads
# state before the event that orders it passes on one shape and fails on
# another; this catches it before it lands. The transport suites run once
# more per shape under the race detector, the build in which a recycled
# buffer is poisoned as it is put back: that is where the buffer-ownership
# tests bite, and the destination tests (a reply read straight into a
# caller's slice must not write it after its waiter returned) with them,
# and the daemon's close under streaming reads (a reply that is a view of
# lent memory must not be written after its node could be unmapped).
# memnode rides in that pass for its lifetime test (readers
# copying out of nodes whose last reference is gone while the collector
# unmaps dead ones), its lender test (concurrent tenants allocating,
# verifying and freeing extents while the boundary moves and their huge
# pages are populated) and its drop-against-populate test, alloc beside it
# as the algorithm under that lock, on every shape. The core line also
# runs the physical-pool deployment, the server-id bounds table and the
# balancer, planner and access-profile tests, the page cache and its
# coherence directory, the lender-call table and the sizing rounds; the
# breaker tests, the profile tests (ageing against concurrent adds, a
# released tenant's history), the cache tests (an eviction notice racing
# a re-fill of its victim) and the lender and sizing tests run once more
# per shape under the race detector, and so do the chaos driver's sweeps,
# named one by one in $(CHAOS_DRIVER). The page cache's own tests (Stats
# against concurrent fills and drains, growth bounds, the set-up
# allocation guards of cache.New and lmp.New) run repeated under it.
flake:
	@for p in 1 2 4 8; do \
		echo "flake: GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -shuffle=on -count=$(FLAKE_COUNT) ./internal/rpc/ ./internal/daemon/ || exit 1; \
		GOMAXPROCS=$$p $(GO) test -race -shuffle=on ./internal/rpc/ ./internal/daemon/ ./internal/chaos/ ./internal/memnode/ ./internal/alloc/ || exit 1; \
		GOMAXPROCS=$$p $(GO) test -race -shuffle=on -count=$(FLAKE_COUNT) -run 'Cache' ./internal/cache/ . || exit 1; \
		GOMAXPROCS=$$p $(GO) test -shuffle=on -count=$(FLAKE_COUNT) -run 'Admission|Inflight|Tail|Breaker|Compact|Elasticity|Translate|Physical|ServerID|Balance|Profile|Migrat|Cache|Coheren|Lender|SizeOnce|$(CHAOS_DRIVER)' ./internal/core/ || exit 1; \
		GOMAXPROCS=$$p $(GO) test -race -shuffle=on -run 'Breaker|Profile|Cache|Coheren|Lender|SizeOnce|$(CHAOS_DRIVER)' ./internal/core/ || exit 1; \
	done

# Regenerate the checked-in code ledger AUDIT.md: per package non-test
# LoC, test LoC (code lines: no blanks, no comments), exported symbols
# and statement coverage, with totals before (HEAD) and after (the
# working tree) at the top.
audit:
	sh scripts/audit.sh > AUDIT.md.tmp
	mv AUDIT.md.tmp AUDIT.md

# Short fuzz pass over every native fuzz target of the module, found with
# `go test -list '^Fuzz'` (GF(256) algebra, RS round-trip/reconstruction,
# the RPC wire codec and the server's read loop against arbitrary bytes,
# a reply landing in its caller's destination against a hostile peer, the
# daemon's socket-facing handlers and read and write receivers, the write
# combiner's recycled storage against a flat model, and whatever is added).
# The seed corpora already run as plain tests; this budgets $(FUZZTIME)
# of mutation per target. Go allows one -fuzz target per invocation,
# hence the loop. -fuzzminimizetime 1s bounds the time spent minimizing
# each new interesting input (Go's default is 60s): minimizing a byte
# input tries removing every subset of its bytes, quadratic in its
# length, and on FuzzWriteCombinerModel's 1000-byte programs the default
# ate a whole smoke budget, at ~1 exec/s.
fuzz-smoke:
	@targets=$$($(GO) test -list '^Fuzz' ./... | awk '/^Fuzz/ { t[n++] = $$1; next } /^ok/ { for (i = 0; i < n; i++) print $$2, t[i]; n = 0 } /^FAIL/ { bad = 1 } END { exit bad }') || exit 1; \
	[ -n "$$targets" ] || { echo "fuzz-smoke: no fuzz targets found"; exit 1; }; \
	echo "$$targets" | while read pkg t; do \
		echo "fuzz-smoke: $$pkg $$t"; \
		$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 1s $$pkg < /dev/null || exit 1; \
	done

# End-to-end observability smoke: boot a real lmpd on ephemeral ports,
# drive traffic with lmpctl, scrape /metrics, /stats, and pprof, and diff
# the exported metric names against internal/daemon/testdata/metrics.golden.
# Soft-fails by default (sandboxed CI may forbid sockets); OBS_STRICT=1
# makes failures fatal.
obs-smoke:
	@if [ "$(OBS_STRICT)" = "1" ]; then \
		sh scripts/obs-smoke.sh; \
	else \
		sh scripts/obs-smoke.sh || echo "obs-smoke: failures above (non-blocking)"; \
	fi

# Known-vulnerability scan — a hard gate: a missing tool or a finding
# fails the target. The tool installs at the pinned version on first use
# so every run scans with the same database-query logic. Offline or
# sandboxed environments (no module proxy, no vuln DB) set VULN_SOFT=1
# to downgrade every failure — install included — to a warning without
# masking test results.
govulncheck:
	@run() { \
		if ! command -v govulncheck >/dev/null 2>&1; then \
			echo "govulncheck: installing golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)"; \
			$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) || return 1; \
		fi; \
		govulncheck ./...; \
	}; \
	if [ "$(VULN_SOFT)" = "1" ]; then \
		run || echo "govulncheck: failures above (non-blocking, VULN_SOFT=1)"; \
	else \
		run; \
	fi

bench:
	$(GO) test -bench=. -benchmem .

# Smoke mode for the parallel hot-path benchmark and the cached pool's
# cold mix: a fixed small iteration count proves the paths work (at every
# goroutine level; miss+evict, buffered write and flush) without
# benchmark-grade runtimes. The cold mix prints B/op and allocs/op: both
# are 0 in the steady state.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkPoolParallelReadWrite' -benchtime=100x .
	$(GO) test -run '^$$' -bench 'BenchmarkPoolColdMix' -benchtime=20000x -benchmem .

# The examples, then lmpbench, the one program that prints the paper's
# tables and figures (internal/model). `repair` is left out: it measures
# wall-clock worker scaling and fails below a 3.0x floor.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/vectorsum
	$(GO) run ./examples/kvstore
	$(GO) run ./examples/mmap
	$(GO) run ./examples/failover
	$(GO) run ./examples/sizing
	$(GO) run ./cmd/lmpbench -experiment table1,table2,fig2,fig3,fig4,fig5,latency,nearmem,software -reps 1
