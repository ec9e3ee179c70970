package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/chaos"
	"github.com/lmp-project/lmp/internal/failure"
	"github.com/lmp-project/lmp/internal/sim"
	"github.com/lmp-project/lmp/internal/telemetry"
)

// The chaos driver is the pool's one property harness. A row of
// chaosRows names a deployment (cache or none, protection, logical or
// physical pool), an op list — drawn from a mix, or scripted — and its
// faults. One runner replays any row on the sim clock against a shadow
// model (the bytes a sequential pool would hold per live buffer): it
// checks CheckInvariants before every op, reads every surviving buffer
// back from every live server at the end, and checks the span tree.
// Each seed runs twice and must produce a byte-identical trace; a
// divergence is shrunk with ddmin and reported with its replay command,
//
//	CHAOS_SEED=<n> go test -run '<Test>/seed=<n>' ./internal/core/
//
// CHAOS_SEEDS=<count> widens every sweep (make chaos runs 50). Each sweep
// prints what its ops and faults made happen and, over the default eight
// seeds or more, fails if one of them never took effect. A pinned
// regression seed runs on the mix it was found with, so it replays the
// pool calls it was pinned for.

const (
	chaosServers   = 8
	chaosSlicesPer = 24
	chaosMinLive   = 5 // EC K=2 M=1 wants 3 distinct servers; keep margin
	e2eOps         = 140
	cacheOps       = 260
	opSpacing      = 50 * sim.Microsecond
)

// opKind enumerates the ops every row draws from.
type opKind int

const (
	opAlloc      opKind = iota
	opRefuse            // an alloc sized so placement runs out part-way
	opWrite             // up to 5000 B
	opWriteSmall        // up to 256 B: fits the write combiner
	opRead
	opReread // the last read again, by the same server: a hit unless a write or an eviction came between
	opRelease
	opCrash    // crash-stop a live server (argShape.repairAfter says when it is repaired)
	opFlap     // open a live server's breaker, or half-open the open one
	opIdle     // no pool call: the band e2e's link degradation held when the pinned seeds were found
	opFlush    // flush the write combiner
	opBalance  // one locality-balancer round
	opMigrate  // move a slice onto a dead server: refused with ErrServerDead
	opArmCrash // a live server dies two transfers into the next repair
	// opLenderFail arms the owner's lender to fail the next ReadAt, then
	// reads one slice's range: refused with the fault, bytes intact.
	opLenderFail
	// opLenderCrash arms the owner's lender to crash at its next call,
	// then writes one slice's range: refused as ErrServerDead with
	// nothing written, and the pool's crash verdict follows.
	opLenderCrash
)

// effects lists, per op kind, what a sweep's ops of that kind must make
// happen at least once; an op that never takes effect tests nothing. A
// "span:" effect is a span of that name recorded by the ops.
var effects = [...][]string{
	opAlloc:       {"alloc"},
	opRefuse:      {"alloc-refused"},
	opWrite:       {"write", "span:pool.write"},
	opWriteSmall:  {"write-small"},
	opRead:        {"read", "span:pool.read"},
	opReread:      {"reread"},
	opRelease:     {"release"},
	opCrash:       {"crash", "repair", "span:pool.repair"},
	opFlap:        {"shed"},
	opFlush:       {"flush", "span:pool.wc.flush"},
	opBalance:     {"balance", "span:pool.balance"},
	opMigrate:     {"migrate-dead"},
	opArmCrash:    {"mid-repair-crash"},
	opLenderFail:  {"lender-fail"},
	opLenderCrash: {"lender-crash", "crash", "repair"},
}

// On a row whose shape splits ops into vecs, or whose pool caches, the
// same ops owe these as well.
var (
	vectoredEffects = map[opKind][]string{
		opWrite: {"writev", "span:pool.writev"},
		opRead:  {"readv", "span:pool.readv"},
	}
	cachedEffects = map[opKind][]string{
		opWrite:      {"span:pool.coherence.write"},
		opWriteSmall: {"buffered"},
		opRead:       {"evict", "span:pool.cache.fill"},
		opReread:     {"hit"},
	}
)

// opDesc is one pre-generated op: its kind and two raw random words,
// fixed per (seed, index) so ddmin subsets replay each kept op with
// identical parameters.
type opDesc struct {
	kind opKind
	a, b uint64
}

// mixStep is one band of an op mix: a roll below upto, and not below the
// band before, draws kind.
type mixStep struct {
	upto int
	kind opKind
}

var (
	e2eMix         = []mixStep{{14, opAlloc}, {15, opRefuse}, {50, opWrite}, {80, opRead}, {90, opRelease}, {96, opCrash}, {100, opFlap}}
	cacheMix       = []mixStep{{9, opAlloc}, {10, opRefuse}, {28, opWriteSmall}, {38, opWrite}, {68, opRead}, {74, opReread}, {80, opRelease}, {88, opCrash}, {94, opFlush}, {100, opBalance}}
	lenderFaultMix = []mixStep{{14, opAlloc}, {15, opRefuse}, {45, opWrite}, {72, opRead}, {84, opRelease}, {90, opCrash}, {95, opLenderFail}, {100, opLenderCrash}}
	physicalMix    = []mixStep{{11, opAlloc}, {12, opRefuse}, {30, opWriteSmall}, {52, opWrite}, {82, opRead}, {88, opReread}, {94, opRelease}, {100, opFlush}}

	// pinnedE2EMix and pinnedCacheMix are the e2e and cache mixes the
	// pinned regression seeds were found with: no refused alloc, and
	// e2e's flap band idle (it degraded a link no in-process pool has).
	// On them a pinned seed issues the pool calls it was pinned for.
	pinnedE2EMix   = []mixStep{{15, opAlloc}, {50, opWrite}, {80, opRead}, {90, opRelease}, {96, opCrash}, {100, opIdle}}
	pinnedCacheMix = []mixStep{{10, opAlloc}, {28, opWriteSmall}, {38, opWrite}, {74, opRead}, {80, opRelease}, {88, opCrash}, {94, opFlush}, {100, opBalance}}
)

// drawOps is the one op generator: per op, one Intn(100) roll against the
// mix and two Uint64 parameters.
func drawOps(seed int64, n int, mix []mixStep) []opDesc {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]opDesc, n)
	for i := range ops {
		roll, k := rng.Intn(100), 0
		for roll >= mix[k].upto {
			k++
		}
		ops[i] = opDesc{kind: mix[k].kind, a: rng.Uint64(), b: rng.Uint64()}
	}
	return ops
}

// argShape is how a row turns an op's two random words into pool calls.
// e2eArgs and cacheArgs are the e2e and cache sweeps' shapes as the
// pinned seeds were found with them.
type argShape struct {
	maxBufs     int    // an alloc with this many live buffers is skipped
	slices      uint64 // an alloc is 1+a%slices slices
	trim        uint64 // less b%trim bytes
	readLen     uint64 // a read is 1+b%readLen bytes
	readerShift uint   // issued by the live server b>>readerShift picks
	stride      uint64 // byte j of a write is j*stride + a + b
	vectored    bool   // a%4 == 0 splits a write or read into a two-vec WriteV/ReadV
	// repairAfter is how long after its crash a server is repaired; 0
	// leaves it to the next crash op, which repairs instead of crashing.
	repairAfter sim.Duration
}

var (
	e2eArgs   = argShape{maxBufs: 6, slices: 3, trim: 1000, readLen: 5000, stride: 1, vectored: true, repairAfter: 130 * sim.Microsecond}
	cacheArgs = argShape{maxBufs: 5, slices: 2, trim: 2000, readLen: 4000, readerShift: 32, stride: 3}
)

// chaosRow is one deployment under one op list and fault set.
type chaosRow struct {
	name string
	// sub is the row's subtest under seed=N in a test that sweeps more
	// than one row, kept from before the rows were one table so that
	// existing -run filters and test histories still match.
	sub string
	// deploy builds the pool from the runner's base config: eight
	// servers of chaosSlicesPer slices, striped placement, every op
	// traced on the sim clock, the mid-repair crash hook as FabricDelay,
	// and breakers on a test clock if the ops flap them.
	deploy func(Config) (*Pool, error)
	// prots[op.a % len(prots)] protects an allocation.
	prots []failure.Policy
	args  argShape
	// flaps lets a breaker flap land before every op, drawn from a second
	// stream of the seed.
	flaps bool
	ops   func(seed int64) []opDesc
}

var (
	rep2 = failure.Policy{Scheme: failure.Replicate, Copies: 2}
	rep3 = failure.Policy{Scheme: failure.Replicate, Copies: 3}
	ec21 = failure.Policy{Scheme: failure.ErasureCode, K: 2, M: 1}
)

var (
	// e2eRow is the uncached pool: EC(2,1) and replicate-2 buffers,
	// scalar and vectored ops, crashes with delayed repair, and breaker
	// flaps under which a read may be refused but never stale.
	e2eRow = chaosRow{name: "e2e", deploy: New, prots: []failure.Policy{rep2, ec21}, args: e2eArgs,
		ops: func(seed int64) []opDesc { return drawOps(seed, e2eOps, e2eMix) }}
	// cacheRow runs a tiny cache and a tight write combiner through
	// flushes, balancer rounds and crashes: any invalidation gap is a
	// stale read.
	cacheRow = chaosRow{name: "cache", sub: "default", deploy: deployCached, prots: []failure.Policy{rep2, ec21}, args: cacheArgs,
		ops: func(seed int64) []opDesc { return drawOps(seed, cacheOps, cacheMix) }}
	// cacheFlapsRow is cacheRow with replicate-2 buffers only and breaker
	// flaps between ops: reads of a degraded owner's slices are shed to
	// replicas, through the cache fill as much as the direct path.
	cacheFlapsRow = chaosRow{name: "cache-flaps", sub: "replicated-flaps", deploy: deployCached, prots: []failure.Policy{rep2}, args: cacheArgs, flaps: true,
		ops: cacheRow.ops}
	// physicalRow is NewPhysical's deployment: one lender, caching
	// compute servers, unprotected buffers, scalar and vectored ops, no
	// crash.
	physicalRow = chaosRow{name: "physical", deploy: deployPhysical, prots: []failure.Policy{{}}, args: e2eArgs,
		ops: func(seed int64) []opDesc { return drawOps(seed, cacheOps, physicalMix) }}
	// repairRow is a scripted schedule of double faults on replicate-3
	// buffers (repairScript).
	repairRow = chaosRow{name: "repair", deploy: New, prots: []failure.Policy{rep3}, args: e2eArgs, ops: repairScript}
	// slowRow is e2eRow over lenders whose every call is a
	// slowLenderDelay round trip of wall time.
	slowRow = chaosRow{name: "slow", sub: "slow", deploy: deploySlow, prots: e2eRow.prots, args: e2eArgs, ops: e2eRow.ops}
	// lenderFaultRow is the uncached pool over lenders that fail a read
	// or crash under a write at the seam, between the ordinary crashes.
	lenderFaultRow = chaosRow{name: "lender-fault", sub: "lender-fault", deploy: deployFaulty, prots: e2eRow.prots, args: e2eArgs,
		ops: func(seed int64) []opDesc { return drawOps(seed, e2eOps, lenderFaultMix) }}

	chaosRows = []*chaosRow{&e2eRow, &cacheRow, &cacheFlapsRow, &physicalRow, &repairRow, &slowRow, &lenderFaultRow}
)

// slowLenderDelay is the slow row's lender round trip.
const slowLenderDelay = 20 * time.Microsecond

func deploySlow(c Config) (*Pool, error)   { return faultyPool(c, slowLenderDelay) }
func deployFaulty(c Config) (*Pool, error) { return faultyPool(c, 0) }

// deployCached sizes the cache at 16 pages, so pages are evicted and
// re-filled constantly; the shape that follows from 16 pages — 4 shards,
// a combiner that flushes past 512 B or 4 writes — makes auto-flushes
// fire between the explicit ones.
func deployCached(c Config) (*Pool, error) {
	c.Cache = CacheConfig{Enabled: true, CapacityBytes: 16 * 4096}
	return New(c)
}

// deployPhysical is four compute servers caching 16 pages each in front
// of one lender. NewPhysical takes no trace config, so the row's tracing
// is installed after it.
func deployPhysical(c Config) (*Pool, error) {
	p, err := NewPhysical(PhysicalConfig{Servers: 4, LocalBytes: 16 * 4096, PoolBytes: chaosSlicesPer * SliceSize})
	if err != nil {
		return nil, err
	}
	p.cfg.Trace = c.Trace
	p.initObs()
	return p, nil
}

// repairScript is the repair row's fixed schedule: four buffers and one
// that cannot be placed, writes, a crash, a write in its recovery window,
// a second server armed to die inside the crash's repair, a migration
// aimed at a dead server, then writes against what survives.
func repairScript(seed int64) []opDesc {
	rng := rand.New(rand.NewSource(seed))
	var ops []opDesc
	add := func(k opKind, n int) {
		for i := 0; i < n; i++ {
			ops = append(ops, opDesc{kind: k, a: rng.Uint64(), b: rng.Uint64()})
		}
	}
	add(opAlloc, 4)
	add(opRefuse, 1)
	add(opWrite, 24)
	add(opCrash, 1)
	add(opWrite, 1)
	add(opArmCrash, 1) // the repair lands before the next op
	add(opMigrate, 1)
	add(opWrite, 8)
	return ops
}

// chaosBuf pairs a pool buffer with its shadow: the bytes it must hold.
type chaosBuf struct {
	buf   *Buffer
	model []byte
}

// coverage counts what ops and faults made happen.
type coverage map[string]int

func (c coverage) String() string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		keys[i] = fmt.Sprintf("%s=%d", k, c[k])
	}
	return strings.Join(keys, " ")
}

// chaosResult is one run of a row.
type chaosResult struct {
	trace      string // op log and fault trace: a pure function of the seed
	divergence []string
	cov        coverage
	cached     bool // the row's pool has a page cache
}

// runRow replays ops on row's deployment, keeping only the ops whose
// index is in keep (nil keeps all). corruptAt, when >= 0, silently
// corrupts the shadow model after that op: the driver's self-test that
// divergence detection and shrinking fire.
func runRow(t *testing.T, row *chaosRow, seed int64, ops []opDesc, keep []int, corruptAt int) chaosResult {
	t.Helper()
	eng := sim.NewEngine()
	clk := &tailClock{}
	ci := newCrashInjector(0)
	// One clock for spans and breakers: simulated time plus the offset a
	// flap's heal adds, which carries an open breaker past its 1 h
	// openFor, far beyond any run's simulated time.
	cfg := Config{
		Placement: alloc.Striped,
		Trace:     TraceConfig{SampleEvery: 1, RingSize: 1 << 15, SlowOpNS: -1},
		Repair:    RepairConfig{FabricDelay: ci.hook},
		Clock:     func() int64 { return int64(eng.Now()) + clk.now() },
	}
	// Breakers are armed only where something flaps them: the pinned
	// seeds were found on pools without.
	if row.flaps || slices.ContainsFunc(ops, func(op opDesc) bool { return op.kind == opFlap }) {
		cfg.Tail = armedBreakers
	}
	for i := 0; i < chaosServers; i++ {
		cfg.Servers = append(cfg.Servers, ServerConfig{
			Name: "srv", Capacity: chaosSlicesPer * SliceSize, SharedBytes: chaosSlicesPer * SliceSize,
		})
	}
	p, err := row.deploy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	setBreakerPolicy(p, tailBreakerPolicy())
	in := chaos.New(eng, chaos.Config{Seed: seed, Metrics: p.metrics})

	res := chaosResult{cov: coverage{}, cached: p.caches != nil}
	var log strings.Builder
	logf := func(format string, args ...any) {
		fmt.Fprintf(&log, "%v "+format+"\n", append([]any{eng.Now()}, args...)...)
	}
	diverge := func(format string, args ...any) {
		res.divergence = append(res.divergence, fmt.Sprintf(format, args...))
	}
	// servers lists, in id order, the dead servers or the live ones.
	servers := func(dead bool) (ids []addr.ServerID) {
		for s := 0; s < p.Servers(); s++ {
			if p.Dead(addr.ServerID(s)) == dead {
				ids = append(ids, addr.ServerID(s))
			}
		}
		return ids
	}
	liveServer := func(pick uint64) addr.ServerID {
		live := servers(false)
		return live[pick%uint64(len(live))]
	}

	in.OnCrash = func(s int) {
		if err := p.Crash(addr.ServerID(s)); err != nil {
			diverge("crash srv=%d: %v", s, err)
			return
		}
		res.cov["crash"]++
	}
	// repair rebuilds a dead server. Once the armed crash has fired, an
	// error is expected (it may strand work of the repair it interrupted);
	// the final sweep must still converge.
	repair := func(s addr.ServerID) bool {
		fired := ci.fired.Load()
		rec, err := p.RepairServer(s)
		logf("repair srv=%d slices=%d %s", s, rec, errClass(err))
		if rec > 0 {
			res.cov["repair"]++
		}
		if !fired && ci.fired.Load() {
			res.cov["mid-repair-crash"]++
			logf("mid-repair crash srv=%d", ci.target.Load())
		}
		if err != nil && !ci.fired.Load() {
			diverge("repair srv=%d: %v", s, err)
		}
		return err == nil
	}
	standing := addr.ServerID(-1) // crashed, not yet repaired
	// crash crash-stops victim now and, if the row's shape says so,
	// repairs it repairAfter later.
	crash := func(victim addr.ServerID) {
		standing = victim
		in.CrashAt(eng.Now(), int(victim))
		if d := row.args.repairAfter; d > 0 {
			eng.At(eng.Now().Add(d), func() {
				standing = -1
				repair(victim)
			})
		}
		logf("crash srv=%d", victim)
	}

	// flap opens one live server's breaker with a failure burst or, when
	// one is open, advances the clock past its cool-down, so the next access
	// finds it half-open and a success closes it. At most one server is
	// degraded at a time; while one is, a read may be refused with
	// ErrServerDegraded (an EC buffer's owner, or a replica's server
	// crashed), never served stale.
	opened := addr.ServerID(-1)
	flap := func(roll int, pick uint64) {
		switch {
		case opened >= 0 && roll < 30:
			clk.advance(2 * time.Hour)
			logf("half-open srv=%d", opened)
			opened = -1
		case opened < 0 && roll < 20:
			opened = liveServer(pick)
			tripBreaker(t, p, opened)
			logf("open srv=%d", opened)
		}
	}
	var flapRolls []uint64
	if row.flaps {
		rng := rand.New(rand.NewSource(seed*977 + 1))
		flapRolls = make([]uint64, len(ops))
		for i := range flapRolls {
			flapRolls[i] = rng.Uint64()
		}
	}

	var bufs []*chaosBuf
	var last struct { // the last read op's range, and its reader
		cb   *chaosBuf
		off  int64
		n    int
		from addr.ServerID
	}
	// pickRange picks a buffer and a range of it from one op's words.
	pickRange := func(pick, at, length uint64) (*chaosBuf, int64, int) {
		cb := bufs[pick%uint64(len(bufs))]
		off := int64(at % uint64(len(cb.model)))
		return cb, off, int(min(int64(length), int64(len(cb.model))-off))
	}
	// pickSliceRange is pickRange cut at the end of the slice it starts
	// in, with the live owner of that slice; ok is false when the owner
	// is dead.
	pickSliceRange := func(pick, at, length uint64) (cb *chaosBuf, off int64, n int, owner addr.ServerID, ok bool) {
		cb, off, n = pickRange(pick, at, length)
		n = int(min(int64(n), SliceSize-off%SliceSize))
		owner, err := p.OwnerOf(cb.buf.Addr() + addr.Logical(off))
		return cb, off, n, owner, err == nil && !p.Dead(owner)
	}
	// halves splits [off, off+len(data)) of cb into two vecs over data.
	halves := func(cb *chaosBuf, off int64, data []byte) []Vec {
		cut, base := len(data)/2, cb.buf.Addr()+addr.Logical(off)
		return []Vec{{Addr: base, Data: data[:cut]}, {Addr: base + addr.Logical(cut), Data: data[cut:]}}
	}

	step := func(idx int, op opDesc) {
		switch op.kind {
		case opAlloc:
			if len(bufs) >= row.args.maxBufs {
				logf("alloc skipped")
				return
			}
			prot := row.prots[op.a%uint64(len(row.prots))]
			size := int64(1+op.a%row.args.slices)*SliceSize - int64(op.b%row.args.trim)
			b, err := p.AllocProtected(size, liveServer(op.b), prot)
			if err != nil {
				diverge("op %d: alloc: %v", idx, err)
				return
			}
			bufs = append(bufs, &chaosBuf{buf: b, model: make([]byte, size)})
			res.cov["alloc"]++
			logf("alloc size=%d prot=%v", size, prot.Scheme)
		case opRefuse:
			// Protected, all but one free slice: the primaries fit and the
			// protection rows do not. Unprotected, one slice more than is
			// free.
			prot := row.prots[op.a%uint64(len(row.prots))]
			free := int64(0)
			for _, s := range servers(false) {
				free += p.nodes[s].FreeBytes() / SliceSize
			}
			n := free + 1
			if prot.Scheme != failure.None {
				n = free - 1
			}
			inUse := regionUse(p)
			b, err := p.AllocProtected(n*SliceSize, liveServer(op.b), prot)
			if !errors.Is(err, alloc.ErrNoSpace) {
				diverge("op %d: alloc of %d slices with %d free: %v, want ErrNoSpace", idx, n, free, err)
				if err == nil {
					_ = b.Release()
				}
				return
			}
			if err := failedAllocLeftNothing(p, inUse); err != nil {
				diverge("op %d: refused alloc: %v", idx, err)
			}
			res.cov["alloc-refused"]++
			logf("alloc refused slices=%d", n)
		case opWrite, opWriteSmall:
			if len(bufs) == 0 {
				return
			}
			kind, maxLen := "write", uint64(5000)
			if op.kind == opWriteSmall {
				kind, maxLen = "write-small", 256
			}
			cb, off, n := pickRange(op.a, op.b, op.a%maxLen+1)
			data := make([]byte, n)
			for j := range data {
				data[j] = byte(uint64(j)*row.args.stride + op.a + op.b)
			}
			var err error
			if op.kind == opWrite && row.args.vectored && op.a%4 == 0 && n >= 2 {
				kind = "writev"
				err = p.WriteV(liveServer(op.a), halves(cb, off, data))
			} else {
				err = cb.buf.WriteAt(liveServer(op.a), data, off)
			}
			if err != nil {
				diverge("op %d: %s off=%d len=%d: %v", idx, kind, off, n, err)
				return
			}
			copy(cb.model[off:], data)
			res.cov[kind]++
			logf("%s off=%d len=%d", kind, off, n)
		case opRead, opReread:
			kind := "reread"
			if op.kind == opRead {
				if len(bufs) == 0 {
					return
				}
				kind = "read"
				last.cb, last.off, last.n = pickRange(op.a, op.b, op.b%row.args.readLen+1)
				last.from = liveServer(op.b >> row.args.readerShift)
			} else if !slices.Contains(bufs, last.cb) || p.Dead(last.from) {
				logf("reread skipped")
				return
			}
			cb, off, n, from := last.cb, last.off, last.n, last.from
			got := make([]byte, n)
			var err error
			if op.kind == opRead && row.args.vectored && op.a%4 == 0 && n >= 2 {
				kind = "readv"
				err = p.ReadV(from, halves(cb, off, got))
			} else {
				err = cb.buf.ReadAt(from, got, off)
			}
			switch {
			case errors.Is(err, ErrServerDegraded) && opened >= 0:
				logf("%s off=%d len=%d refused", kind, off, n)
			case err != nil:
				diverge("op %d: %s off=%d len=%d: %v", idx, kind, off, n, err)
			case !bytes.Equal(got, cb.model[off:off+int64(n)]):
				diverge("op %d: %s off=%d len=%d diverges from the model", idx, kind, off, n)
			default:
				res.cov[kind]++
				logf("%s off=%d len=%d", kind, off, n)
			}
		case opRelease:
			if len(bufs) == 0 {
				return
			}
			j := op.a % uint64(len(bufs))
			cb := bufs[j]
			if err := cb.buf.Release(); err != nil {
				diverge("op %d: release: %v", idx, err)
				return
			}
			if err := p.Read(0, cb.buf.Addr(), make([]byte, 1)); !errors.Is(err, ErrReleased) {
				diverge("op %d: read after release = %v, want ErrReleased", idx, err)
			}
			bufs = append(bufs[:j], bufs[j+1:]...)
			res.cov["release"]++
			logf("release buf=%d", j)
		case opCrash:
			switch {
			case standing >= 0 && row.args.repairAfter == 0:
				repair(standing)
				standing = -1
			case standing >= 0 || len(servers(false)) <= chaosMinLive:
				logf("crash skipped")
			default:
				crash(liveServer(op.a))
			}
		case opFlap:
			flap(0, op.a)
		case opIdle:
		case opFlush:
			before := p.CacheStats().FlushedBytes
			if err := p.FlushWriteCombining(); err != nil {
				diverge("op %d: flush: %v", idx, err)
				return
			}
			n := p.CacheStats().FlushedBytes - before
			if n > 0 {
				res.cov["flush"]++
			}
			logf("flush bytes=%d", n)
		case opBalance:
			// Migration rebinds slices under the stripe lock and must drop
			// stale cached copies of the pages it moves.
			rep, err := p.BalanceOnce()
			if err != nil {
				diverge("op %d: balance: %v", idx, err)
			}
			if rep.Migrated > 0 {
				res.cov["balance"]++
			}
			logf("balance migrated=%d", rep.Migrated)
		case opMigrate:
			dead := servers(true)
			if len(dead) == 0 || len(bufs) == 0 {
				logf("migrate skipped")
				return
			}
			b := bufs[op.b%uint64(len(bufs))].buf
			s, to := b.firstSlice()+op.a%b.sliceCount(), dead[op.a%uint64(len(dead))]
			if err := p.MigrateSlice(s, to); !errors.Is(err, ErrServerDead) {
				diverge("op %d: migrate slice %d to dead srv=%d: %v, want ErrServerDead", idx, s, to, err)
				return
			}
			res.cov["migrate-dead"]++
			logf("migrate slice=%d to dead srv=%d refused", s, to)
		case opArmCrash:
			victim := liveServer(op.a)
			ci.arm(p, victim, 2)
			logf("armed crash srv=%d", victim)
		case opLenderFail:
			if len(bufs) == 0 {
				return
			}
			cb, off, n, owner, ok := pickSliceRange(op.a, op.b, op.b%row.args.readLen+1)
			if !ok {
				logf("lender fail skipped")
				return
			}
			fl := p.nodes[owner].(*faultyLender)
			fl.failNext.Store(verbReadAt + 1)
			from, got := liveServer(op.b), make([]byte, n)
			err := cb.buf.ReadAt(from, got, off)
			if fl.failNext.Swap(0) != 0 {
				diverge("op %d: read off=%d len=%d never reached srv=%d's lender: %v", idx, off, n, owner, err)
				return
			}
			if !errors.Is(err, errLenderFault) {
				diverge("op %d: read off=%d len=%d over a failing lender: %v, want the injected fault", idx, off, n, err)
				return
			}
			if err := cb.buf.ReadAt(from, got, off); err != nil || !bytes.Equal(got, cb.model[off:off+int64(n)]) {
				diverge("op %d: read off=%d len=%d after a lender fault: %v, or diverges from the model", idx, off, n, err)
				return
			}
			res.cov["lender-fail"]++
			logf("lender fail srv=%d off=%d len=%d", owner, off, n)
		case opLenderCrash:
			if len(bufs) == 0 || standing >= 0 || len(servers(false)) <= chaosMinLive {
				logf("lender crash skipped")
				return
			}
			cb, off, n, owner, ok := pickSliceRange(op.a, op.b, op.a%5000+1)
			if !ok {
				logf("lender crash skipped")
				return
			}
			fl := p.nodes[owner].(*faultyLender)
			fl.crashNext.Store(true)
			data := bytes.Repeat([]byte{byte(op.a)}, n)
			err := cb.buf.WriteAt(liveServer(op.a), data, off)
			if !fl.crashed.Load() {
				fl.crashNext.Store(false)
				diverge("op %d: write off=%d len=%d never reached srv=%d's lender: %v", idx, off, n, owner, err)
				return
			}
			if !errors.Is(err, ErrServerDead) {
				diverge("op %d: write off=%d len=%d over a crashing lender: %v, want ErrServerDead", idx, off, n, err)
			}
			res.cov["lender-crash"]++
			logf("lender crash srv=%d off=%d len=%d", owner, off, n)
			crash(owner)
		}
	}

	kept := make([]bool, len(ops))
	for i := range kept {
		kept[i] = keep == nil
	}
	for _, i := range keep {
		kept[i] = true
	}
	broken := false // after the first violation only the final check reports
	for i, op := range ops {
		if !kept[i] {
			continue
		}
		eng.At(sim.Time(sim.Duration(i+1)*opSpacing), func() {
			if err := p.CheckInvariants(); err != nil && !broken {
				broken = true
				diverge("before op %d: invariants: %v", i, err)
			}
			if row.flaps {
				flap(int(flapRolls[i]%100), flapRolls[i]/100)
			}
			step(i, op)
			if i == corruptAt && len(bufs) > 0 && len(bufs[0].model) > 0 {
				bufs[0].model[0] ^= 0xFF
			}
		})
	}
	eng.Run()

	// What the ops made happen, before the final oracle adds its own reads.
	res.cov["shed"] += int(p.metrics.Counter("pool.reads.replica_shed").Value())
	res.cov["recover"] += int(p.metrics.Counter("pool.recoveries").Value())
	if res.cached {
		st := p.CacheStats()
		res.cov["hit"] += int(st.Hits)
		res.cov["evict"] += int(st.Evictions)
		res.cov["buffered"] += int(st.WCWrites)
	}
	for _, sp := range p.TraceSpans() {
		res.cov["span:"+sp.Op]++
	}

	// Repair what is still dead until every repair runs clean: a crash
	// injected mid-repair leaves its victim behind.
	for round := 0; ; round++ {
		clean := true
		for _, s := range servers(true) {
			clean = repair(s) && clean
		}
		if clean {
			break
		}
		if round == 3 {
			diverge("repairs did not converge")
			break
		}
	}
	if err := p.FlushWriteCombining(); err != nil {
		diverge("final flush: %v", err)
	}
	clk.advance(2 * time.Hour) // heal a standing flap: the first read below half-opens it
	for bi, cb := range bufs {
		got := make([]byte, len(cb.model))
		for _, s := range servers(false) {
			if err := cb.buf.ReadAt(s, got, 0); err != nil {
				diverge("final read buf %d from srv %d: %v", bi, s, err)
			} else if !bytes.Equal(got, cb.model) {
				diverge("final read buf %d from srv %d diverges from the model", bi, s)
			}
		}
		for i := uint64(0); i < cb.buf.sliceCount(); i++ {
			if owner, err := p.OwnerOf(cb.buf.Addr() + addr.Logical(i*SliceSize)); err != nil || p.Dead(owner) {
				diverge("buf %d slice %d still on srv %d after repair: %v", bi, i, owner, err)
			}
		}
	}
	if err := p.CheckInvariants(); err != nil {
		diverge("invariants at end: %v", err)
	}
	res.cov["span-edge"] += checkSpanTree(diverge, p.TraceSpans(), p.TracePublished())
	res.trace = log.String() + in.TraceString()
	return res
}

// checkSpanTree is the span-tree completeness oracle: with every op
// traced and the ring holding a whole run, each recorded child must find
// its parent in the ring under the same trace ID. An orphan means a layer
// dropped or hand-minted a SpanContext; a cross-trace edge means one
// re-parented onto the wrong operation. It returns the edges it checked.
func checkSpanTree(diverge func(string, ...any), spans []telemetry.Span, published uint64) (edges int) {
	if published > uint64(len(spans)) {
		diverge("span ring overflowed: %d published, %d retained", published, len(spans))
		return 0
	}
	byID := make(map[uint64]telemetry.Span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	for _, sp := range spans {
		if sp.Trace == 0 || sp.ID == 0 {
			diverge("span %q has zero identity: trace=%d id=%d", sp.Op, sp.Trace, sp.ID)
			continue
		}
		if sp.Parent == 0 {
			continue
		}
		parent, ok := byID[sp.Parent]
		if !ok {
			diverge("span %q (trace=%d id=%d) orphaned: parent %d not in the ring", sp.Op, sp.Trace, sp.ID, sp.Parent)
			continue
		}
		if parent.Trace != sp.Trace {
			diverge("span %q crosses traces: parent %q has trace=%d, child has trace=%d", sp.Op, parent.Op, parent.Trace, sp.Trace)
		}
		edges++
	}
	return edges
}

// checkSeed runs ops on row twice: the runs must leave the same trace,
// and a divergence is shrunk to a minimal failing op subset and reported
// with its replay command. It returns the first run.
func checkSeed(t *testing.T, row *chaosRow, seed int64, ops []opDesc) chaosResult {
	t.Helper()
	first := runRow(t, row, seed, ops, nil, -1)
	if len(first.divergence) > 0 {
		minimal := chaos.Shrink(len(ops), func(keep []int) bool {
			return len(runRow(t, row, seed, ops, keep, -1).divergence) > 0
		})
		t.Errorf("%s seed %d: %d divergence(s):\n  %s\nminimal failing ops: %v\nreplay: %s",
			row.name, seed, len(first.divergence), strings.Join(first.divergence, "\n  "), minimal,
			chaos.ReplayCommand(seed, t.Name(), "./internal/core/"))
		return first
	}
	if second := runRow(t, row, seed, ops, nil, -1); second.trace != first.trace {
		t.Errorf("%s seed %d: two runs left different traces:\n--- run 1\n%s--- run 2\n%s", row.name, seed, first.trace, second.trace)
	}
	return first
}

// sweep runs each row over the seed set, then prints each row's coverage
// and, over the default eight seeds or more, requires every effect the
// row's ops owe (effects, and vectoredEffects or cachedEffects where they
// apply), a shed where flaps land between ops, and a checked span edge.
func sweep(t *testing.T, rows ...*chaosRow) {
	seeds := chaosSeeds(t)
	covs := make([]coverage, len(rows))
	ran := make([]map[opKind]bool, len(rows))
	cached := make([]bool, len(rows))
	for i := range rows {
		covs[i], ran[i] = coverage{}, map[opKind]bool{}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for i, row := range rows {
				run := func(t *testing.T) {
					ops := row.ops(seed)
					for _, op := range ops {
						ran[i][op.kind] = true
					}
					res := checkSeed(t, row, seed, ops)
					for k, n := range res.cov {
						covs[i][k] += n
					}
					cached[i] = res.cached
				}
				if len(rows) == 1 {
					run(t)
				} else {
					t.Run(row.sub, run)
				}
			}
		})
	}
	for i, row := range rows {
		t.Logf("%s over %d seeds: %v", row.name, len(seeds), covs[i])
		need := []string{"span-edge"}
		if row.flaps {
			need = append(need, "shed")
		}
		for k := range ran[i] {
			need = append(need, effects[k]...)
			if row.args.vectored {
				need = append(need, vectoredEffects[k]...)
			}
			if cached[i] {
				need = append(need, cachedEffects[k]...)
			}
		}
		for _, e := range need {
			if len(seeds) >= 8 && covs[i][e] == 0 {
				t.Errorf("%s: %s never took effect over %d seeds", row.name, e, len(seeds))
			}
		}
	}
}

// chaosSeeds resolves the seed set: CHAOS_SEED pins one seed, CHAOS_SEEDS
// widens the sweep, default is a fast 8-seed smoke.
func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", v, err)
		}
		return []int64{n}
	}
	count := 8
	if v := os.Getenv("CHAOS_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("CHAOS_SEEDS=%q: %v", v, err)
		}
		count = n
	}
	seeds := make([]int64, count)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// errClass buckets an error for the deterministic trace.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrServerDead):
		return "dead"
	default:
		return "err"
	}
}

// TestChaosPoolPropertySweep is the paper's failure-masking claim as a
// property test: under crashes and breaker flaps every read returns the
// bytes the shadow model predicts, or is refused while a breaker is open.
func TestChaosPoolPropertySweep(t *testing.T) { sweep(t, &e2eRow) }

// TestChaosCacheCoherence is the tiering safety argument: with the page
// cache and write combiner on, no interleaving returns a stale byte.
func TestChaosCacheCoherence(t *testing.T) { sweep(t, &cacheRow, &cacheFlapsRow) }

// TestChaosPhysicalSweep holds the physical-pool baseline to the same
// oracle: one lender, caching compute servers.
func TestChaosPhysicalSweep(t *testing.T) { sweep(t, &physicalRow) }

// TestChaosRepairDeterministicReplay sweeps the scripted double fault:
// a migration aimed at the dead server is refused, a second server dies
// inside the first one's repair, and every seed replays bit-identically.
func TestChaosRepairDeterministicReplay(t *testing.T) { sweep(t, &repairRow) }

// TestChaosLenderSweep runs the pool over a slow lender — every call a
// slowLenderDelay round trip — and over a faulty one: a read whose
// lender call fails is refused with the fault and leaves the bytes
// intact, and a lender that crashes under a write refuses it with
// nothing written, before the pool's crash verdict lands and repair
// rebuilds what it held.
func TestChaosLenderSweep(t *testing.T) { sweep(t, &slowRow, &lenderFaultRow) }

// TestChaosDivergenceDetectionAndShrink corrupts the model on purpose on
// every row and expects the driver to notice, shrink, and keep the
// corrupting op in the minimal subset: no row's oracle is vacuously green.
func TestChaosDivergenceDetectionAndShrink(t *testing.T) {
	const seed = 3
	for _, row := range chaosRows {
		t.Run(row.name, func(t *testing.T) {
			ops := row.ops(seed)
			corrupt := len(ops) - 1 // after the last op: the final readback must catch it
			if res := runRow(t, row, seed, ops, nil, corrupt); len(res.divergence) == 0 {
				t.Fatal("corrupted model produced no divergence")
			}
			minimal := chaos.Shrink(len(ops), func(keep []int) bool {
				return len(runRow(t, row, seed, ops, keep, corrupt).divergence) > 0
			})
			if len(minimal) == 0 || len(minimal) >= len(ops) {
				t.Fatalf("shrink did not reduce: %d of %d ops", len(minimal), len(ops))
			}
			if !slices.Contains(minimal, corrupt) {
				t.Fatalf("minimal subset %v lost the corrupting op %d", minimal, corrupt)
			}
		})
	}
}

// TestChaosCrashDuringWriteRecovers is the acceptance scenario as a
// scripted e2e op list: a crash lands between writes to an
// erasure-coded buffer, the next write hits the dead owner and recovers
// through RS reconstruction, and nothing diverges or is left on the dead
// server once its repair has run.
func TestChaosCrashDuringWriteRecovers(t *testing.T) {
	ops := []opDesc{
		{kind: opAlloc, a: 1, b: 1000},             // EC(2,1), two slices, the first on server 0
		{kind: opWrite, a: 3999, b: 100},           // 4000 B at 100
		{kind: opWrite, a: 299, b: SliceSize - 50}, // 300 B across the slice boundary
		{kind: opCrash, a: 0},                      // server 0
		{kind: opWrite, a: 999, b: 200},            // into the dead owner's slice
		{kind: opRead, a: 1, b: 64},                // the repair lands after this read
		{kind: opWrite, a: 99, b: 300},
	}
	cov := checkSeed(t, &e2eRow, 0, ops).cov
	if cov["crash"] == 0 {
		t.Fatalf("the crash did not take effect: %v", cov)
	}
	if cov["recover"] == 0 {
		t.Fatal("no RS reconstruction happened (crash did not land on the hot path)")
	}
}

// TestChaosRegressionSeed pins the seed that exercised the
// protection-re-home gap (parity and replica blocks hosted on a crashed
// server were left stale before RepairServer learned to rebuild them).
// Like every pinned seed it runs on the mix it was found with.
func TestChaosRegressionSeed(t *testing.T) {
	const badSeed = 424242
	cov := checkSeed(t, &e2eRow, badSeed, drawOps(badSeed, e2eOps, pinnedE2EMix)).cov
	if cov["crash"] == 0 {
		t.Fatal("regression seed no longer crashes any server; pick a new seed")
	}
	if cov["repair"]+cov["recover"] == 0 {
		t.Fatal("regression seed no longer exercises recovery; pick a new seed")
	}
}

// TestChaosVectoredRegressionSeed pins a seed whose interleaving mixes
// vectored writes and reads with crashes and repairs: WriteV/ReadV must
// stay byte-equivalent to the scalar path while slices die, recover and
// re-home. If the seed stops drawing any of that, re-pick it.
func TestChaosVectoredRegressionSeed(t *testing.T) {
	const vecSeed = 11
	cov := checkSeed(t, &e2eRow, vecSeed, drawOps(vecSeed, e2eOps, pinnedE2EMix)).cov
	if cov["crash"] == 0 || cov["repair"]+cov["recover"] == 0 {
		t.Fatalf("vectored regression seed no longer crashes and recovers: %v", cov)
	}
	if cov["writev"] == 0 || cov["readv"] == 0 {
		t.Fatalf("vectored regression seed drew writev=%d readv=%d; pick a new seed", cov["writev"], cov["readv"])
	}
}

// TestChaosCacheRegressionSeed pins the seed that exposed the
// recovery-re-home cache gap: RepairServer rebuilt a dead server's slice
// onto a node that already cached pages of that slice, leaving the new
// owner caching its own local pages.
func TestChaosCacheRegressionSeed(t *testing.T) {
	const badSeed = 17
	if cov := checkSeed(t, &cacheRow, badSeed, drawOps(badSeed, cacheOps, pinnedCacheMix)).cov; cov["crash"] == 0 {
		t.Fatal("regression seed no longer crashes any server; pick a new seed")
	}
}
