package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/failure"
	"github.com/lmp-project/lmp/internal/telemetry"
)

// The cache-coherence chaos harness drives random interleavings of cached
// reads, combiner-buffered and direct writes, releases, crash/repair
// cycles, explicit flushes, and migration rounds against a cache-enabled
// pool, checking every read against a flat byte model. The cache is sized
// tiny and the combiner thresholds are tightened so eviction, ghost
// re-admission, and auto-flush all churn constantly; any invalidation gap
// between an owner write and a node's cached copy shows up as a stale
// read. Replay one seed with
//
//	CHAOS_SEED=<n> go test -run TestChaosCacheCoherence ./internal/core/
//
// and widen the sweep with CHAOS_SEEDS=<count>.

const (
	ccServers   = 8
	ccSlicesPer = 24
	ccOps       = 260
	ccMinLive   = 5
	ccMaxBufs   = 5
)

const (
	ccOpAlloc      = iota
	ccOpWriteSmall // fits the combiner: buffered when remote
	ccOpWriteLarge // bypasses the combiner: direct write + invalidation
	ccOpRead       // the stale-read oracle
	ccOpRelease
	ccOpCrash // crash a victim, or repair the currently crashed one
	ccOpFlush
	ccOpBalance
)

func genCacheOps(seed int64) []opDesc {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]opDesc, ccOps)
	for i := range ops {
		roll := rng.Intn(100)
		var k int
		switch {
		case roll < 10:
			k = ccOpAlloc
		case roll < 28:
			k = ccOpWriteSmall
		case roll < 38:
			k = ccOpWriteLarge
		case roll < 74:
			k = ccOpRead
		case roll < 80:
			k = ccOpRelease
		case roll < 88:
			k = ccOpCrash
		case roll < 94:
			k = ccOpFlush
		default:
			k = ccOpBalance
		}
		ops[i] = opDesc{kind: opKind(k), a: rng.Uint64(), b: rng.Uint64()}
	}
	return ops
}

// ccVariant is one pool shape the coherence scenario runs on.
type ccVariant struct {
	name string
	// flaps arms per-server breakers on a test clock, makes every buffer
	// 2-way replicated, and lets the seed schedule breaker flaps between
	// ops: a failure burst that opens one server (reads of its slices are
	// then shed to replicas, through the cache fill as much as the direct
	// path) and a clock advance that half-opens it again.
	flaps bool
}

var ccVariants = []ccVariant{{name: "default"}, {name: "replicated-flaps", flaps: true}}

type ccStats struct {
	// trace is one line per op outcome and flap event; a run is a pure
	// function of its seed, so two runs must produce identical traces.
	trace      string
	sheds      uint64
	divergence []string
	hits       uint64
	wcWrites   uint64
	flushes    uint64
	crashes    int
	evictions  uint64
	spans      []telemetry.Span
	published  uint64
}

// chaosCacheRun replays one seed's op sequence sequentially (coherence
// here is a per-operation property, so no sim clock is needed; every run
// is a pure function of its seed).
func chaosCacheRun(t *testing.T, seed int64) ccStats {
	t.Helper()
	return chaosCacheRunOn(t, seed, ccVariants[0])
}

// chaosCacheRunOn is chaosCacheRun on one pool shape.
func chaosCacheRunOn(t *testing.T, seed int64, v ccVariant) ccStats {
	t.Helper()
	clk := &tailClock{}
	cfg := Config{
		Placement: alloc.Striped,
		// Trace every op so each run also checks the span-tree oracle:
		// the cache path is where child spans (fill, coherence, flush)
		// actually hang off the op roots.
		Trace: TraceConfig{SampleEvery: 1, RingSize: chaosRingSize, SlowOpNS: -1},
		Cache: CacheConfig{
			Enabled: true,
			// Tiny cache (16 pages across 4 shards) so resident pages are
			// evicted and re-filled constantly, exercising the ghost list.
			CapacityBytes: 16 * 4096,
			Shards:        4,
			// Tight combiner thresholds so auto-flushes fire mid-sequence,
			// not only at explicit flush points.
			WCMaxBytes: 512,
			WCMaxCount: 4,
		},
	}
	for i := 0; i < ccServers; i++ {
		cfg.Servers = append(cfg.Servers, ServerConfig{
			Name:        "srv",
			Capacity:    ccSlicesPer * SliceSize,
			SharedBytes: ccSlicesPer * SliceSize,
		})
	}
	if v.flaps {
		cfg.Tail = TailConfig{Breaker: tailBreakerPolicy(), NowNS: clk.now}
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	res := ccStats{}
	var trace strings.Builder
	diverge := func(format string, args ...any) {
		res.divergence = append(res.divergence, fmt.Sprintf(format, args...))
	}
	// flap opens one live server's breaker with a failure burst, or — when
	// one is already open — advances the clock past OpenFor, so the next
	// access finds it half-open and a success closes it. At most one
	// server is degraded at a time: the replica of a shed read is then
	// always healthy unless it crashed, the one case a read may be refused.
	flapRNG := rand.New(rand.NewSource(seed*977 + 1))
	opened := addr.ServerID(-1)
	flap := func(idx int) {
		switch roll := flapRNG.Intn(100); {
		case opened >= 0 && roll < 30:
			clk.advance(2 * time.Hour)
			fmt.Fprintf(&trace, "%d half-open srv=%d\n", idx, opened)
			opened = -1
		case opened < 0 && roll < 20:
			victim := addr.ServerID(flapRNG.Intn(ccServers))
			if p.Dead(victim) {
				return
			}
			tripBreaker(t, p, victim)
			fmt.Fprintf(&trace, "%d open srv=%d\n", idx, victim)
			opened = victim
		}
	}
	var bufs []*chaosBuf
	live := ccServers
	crashed := addr.ServerID(-1)

	liveServer := func(pick uint64) addr.ServerID {
		var liveIDs []addr.ServerID
		for s := 0; s < ccServers; s++ {
			if !p.Dead(addr.ServerID(s)) {
				liveIDs = append(liveIDs, addr.ServerID(s))
			}
		}
		return liveIDs[pick%uint64(len(liveIDs))]
	}

	writeOp := func(idx int, op opDesc, maxLen int) {
		if len(bufs) == 0 {
			return
		}
		cb := bufs[op.a%uint64(len(bufs))]
		off := int64(op.b % uint64(len(cb.model)))
		n := int(op.a%uint64(maxLen)) + 1
		if off+int64(n) > int64(len(cb.model)) {
			n = int(int64(len(cb.model)) - off)
		}
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(uint64(j)*3 + op.a + op.b)
		}
		if err := cb.buf.WriteAt(liveServer(op.a), data, off); err != nil {
			diverge("op %d: write off=%d len=%d: %v", idx, off, n, err)
			return
		}
		copy(cb.model[off:], data)
	}

	for idx, op := range genCacheOps(seed) {
		// The oracle between ops: besides the pool's bookkeeping, every
		// cached page matches its authoritative bytes and the page
		// directory registers exactly the cached pages.
		if err := p.CheckInvariants(); err != nil {
			diverge("before op %d: invariants: %v", idx, err)
		}
		if v.flaps {
			flap(idx)
		}
		switch int(op.kind) {
		case ccOpAlloc:
			if len(bufs) >= ccMaxBufs {
				continue
			}
			size := int64(1+op.a%2)*SliceSize - int64(op.b%2000)
			prot := failure.Policy{Scheme: failure.ErasureCode, K: 2, M: 1}
			if op.a%2 == 0 || v.flaps {
				prot = failure.Policy{Scheme: failure.Replicate, Copies: 2}
			}
			inUse := regionUse(p)
			b, err := p.AllocProtected(size, liveServer(op.b), prot)
			if err != nil {
				if errors.Is(err, alloc.ErrNoSpace) {
					if err := failedAllocLeftNothing(p, inUse); err != nil {
						diverge("op %d: refused alloc: %v", idx, err)
					}
					continue
				}
				diverge("op %d: alloc: %v", idx, err)
				continue
			}
			bufs = append(bufs, &chaosBuf{buf: b, model: make([]byte, size)})
		case ccOpWriteSmall:
			// Small writes land in the combiner when remote; the model
			// applies them immediately, so any read that misses the overlay
			// (or reads a stale flushed copy) diverges.
			writeOp(idx, op, 256)
		case ccOpWriteLarge:
			// Large writes bypass the combiner and must kill every node's
			// cached copy of the touched pages.
			writeOp(idx, op, 5000)
		case ccOpRead:
			if len(bufs) == 0 {
				continue
			}
			cb := bufs[op.a%uint64(len(bufs))]
			off := int64(op.b % uint64(len(cb.model)))
			n := int(op.b%4000) + 1
			if off+int64(n) > int64(len(cb.model)) {
				n = int(int64(len(cb.model)) - off)
			}
			got := make([]byte, n)
			err := cb.buf.ReadAt(liveServer(op.b>>32), got, off)
			if v.flaps && errors.Is(err, ErrServerDegraded) {
				// Owner degraded and its replica's server crashed: refused,
				// not stale.
				fmt.Fprintf(&trace, "%d read off=%d len=%d degraded\n", idx, off, n)
				continue
			}
			fmt.Fprintf(&trace, "%d read off=%d len=%d %s\n", idx, off, n, errClass(err))
			if err != nil {
				diverge("op %d: read off=%d len=%d: %v", idx, off, n, err)
				continue
			}
			if !bytes.Equal(got, cb.model[off:off+int64(n)]) {
				diverge("op %d: stale read off=%d len=%d", idx, off, n)
			}
		case ccOpRelease:
			if len(bufs) == 0 {
				continue
			}
			j := op.a % uint64(len(bufs))
			cb := bufs[j]
			if err := cb.buf.Release(); err != nil {
				diverge("op %d: release: %v", idx, err)
				continue
			}
			probe := make([]byte, 1)
			if err := p.Read(0, cb.buf.Addr(), probe); !errors.Is(err, ErrReleased) {
				diverge("op %d: read after release = %v, want ErrReleased", idx, err)
			}
			bufs = append(bufs[:j], bufs[j+1:]...)
		case ccOpCrash:
			if crashed >= 0 {
				// Repair the standing crash (crash-stop: the server stays
				// dead, its data is rebuilt onto live servers); its cached
				// pages and pending writes must have survived the DropNode
				// purge coherently.
				if _, err := p.RepairServer(crashed); err != nil {
					diverge("op %d: repair srv=%d: %v", idx, crashed, err)
				}
				crashed = -1
				if err := p.CheckInvariants(); err != nil {
					diverge("op %d: invariants after repair: %v", idx, err)
				}
				continue
			}
			if live <= ccMinLive {
				continue
			}
			victim := liveServer(op.a)
			if err := p.Crash(victim); err != nil {
				diverge("op %d: crash srv=%d: %v", idx, victim, err)
				continue
			}
			crashed = victim
			live--
			res.crashes++
		case ccOpFlush:
			if err := p.FlushWriteCombining(); err != nil {
				diverge("op %d: flush: %v", idx, err)
			}
		case ccOpBalance:
			// Migration rebinds slices under the stripe lock and must drop
			// stale cached copies of moved pages.
			if _, err := p.BalanceOnce(); err != nil {
				diverge("op %d: balance: %v", idx, err)
			}
		}
	}

	if crashed >= 0 {
		if _, err := p.RepairServer(crashed); err != nil {
			diverge("final repair srv=%d: %v", crashed, err)
		}
	}
	if err := p.FlushWriteCombining(); err != nil {
		diverge("final flush: %v", err)
	}
	// Heal any standing flap — the half-open probe is the first read below —
	// so the final oracle can demand every byte from every live server.
	clk.advance(2 * time.Hour)
	// Final oracle: after the flush every surviving buffer reads back
	// byte-identical from every live server — cached or not.
	for bi, cb := range bufs {
		got := make([]byte, len(cb.model))
		for s := 0; s < ccServers; s++ {
			if p.Dead(addr.ServerID(s)) {
				continue
			}
			if err := cb.buf.ReadAt(addr.ServerID(s), got, 0); err != nil {
				diverge("final read buf %d srv %d: %v", bi, s, err)
				continue
			}
			if !bytes.Equal(got, cb.model) {
				diverge("final read buf %d srv %d diverges", bi, s)
			}
		}
	}
	if err := p.CheckInvariants(); err != nil {
		diverge("invariants at end: %v", err)
	}

	st := p.CacheStats()
	if v.flaps {
		res.sheds = p.metrics.Counter("pool.reads.replica_shed").Value()
		fmt.Fprintf(&trace, "sheds=%d degraded=%d\n", res.sheds, p.metrics.Counter("pool.reads.degraded_fail").Value())
	}
	res.trace = trace.String()
	res.hits = st.Hits
	res.wcWrites = st.WCWrites
	res.flushes = st.Flushes
	res.evictions = st.Evictions
	res.spans = p.TraceSpans()
	res.published = p.TracePublished()
	checkSpanTree(diverge, res.spans, res.published)
	return res
}

// TestChaosCacheCoherence is the tiering safety argument as a property
// test: with the page cache and write combiner on, no interleaving of
// reads, writes, releases, crash/repair, flushes, and migrations ever
// returns bytes the flat model does not predict — zero stale reads.
func TestChaosCacheCoherence(t *testing.T) {
	var hits, wcWrites, flushes, evictions, sheds uint64
	crashes := 0
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, v := range ccVariants {
				v := v
				t.Run(v.name, func(t *testing.T) {
					res := chaosCacheRunOn(t, seed, v)
					for _, d := range res.divergence {
						t.Errorf("seed %d: %s", seed, d)
					}
					// The flap schedule is part of the seed: the same reads must
					// be shed, refused and served on a second run.
					if v.flaps {
						if again := chaosCacheRunOn(t, seed, v); again.trace != res.trace {
							t.Errorf("seed %d: two runs produced different traces:\n--- first\n%s--- second\n%s", seed, res.trace, again.trace)
						}
					}
					hits += res.hits
					wcWrites += res.wcWrites
					flushes += res.flushes
					evictions += res.evictions
					crashes += res.crashes
					sheds += res.sheds
				})
			}
		})
	}
	// Guard against a vacuously green oracle: the sweep must actually have
	// exercised cache hits, combiner buffering, flushing, and eviction.
	if hits == 0 || wcWrites == 0 || flushes == 0 || evictions == 0 {
		t.Errorf("sweep did not exercise the cache: hits=%d wcWrites=%d flushes=%d evictions=%d",
			hits, wcWrites, flushes, evictions)
	}
	if crashes == 0 {
		t.Errorf("sweep did not exercise crash/repair")
	}
	if sheds == 0 {
		t.Errorf("sweep did not shed a single read to a replica: the flaps met no traffic")
	}
}

// TestChaosCacheRegressionSeed pins the seed that exposed the
// recovery-re-home cache gap: RepairServer rebuilt a dead server's slice
// onto a node that already cached pages of that slice, leaving the new
// owner caching its own local pages (migration handled this; recovery did
// not). The seed is checked in as a named case so the exact interleaving
// stays in the default suite.
func TestChaosCacheRegressionSeed(t *testing.T) {
	const badSeed = 17
	res := chaosCacheRun(t, badSeed)
	for _, d := range res.divergence {
		t.Errorf("seed %d: %s", badSeed, d)
	}
	if res.crashes == 0 {
		t.Fatal("regression seed no longer crashes any server; pick a new seed")
	}
}
