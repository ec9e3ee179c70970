// Package core implements the Logical Memory Pool runtime — the paper's
// primary contribution. The physical-pool baseline it is evaluated
// against is the same runtime deployed with one lender (NewPhysical).
//
// A Pool carves a shared region out of every server's DRAM; the union of
// the shared regions is the disaggregated memory. Applications allocate
// buffers that live at stable logical addresses, read and write them from
// any server (local or remote NUMA-style access), and the runtime's
// background tasks rebalance data placement (migration) and region sizes
// (the sizing optimizer). A small coherent region provides synchronization
// primitives; replication or erasure coding masks server crashes.
//
// # Concurrency
//
// The paper's whole bandwidth argument (§4) depends on many servers
// driving the fabric at once, so the data path must not serialize. The
// runtime therefore splits its locking in two:
//
//   - The structural lock (Pool.mu) serializes operations that change
//     the shape of the pool: allocation, release, migration, compaction,
//     crash and repair, and coherent-region bookkeeping. (Moving a
//     server's private/shared boundary is not among them: each server's
//     lender owns its region's allocator and boundary under its own
//     allocation lock, a leaf below every lock named here.)
//   - The data path (Read/Write/ReadV/WriteV and friends) never takes
//     the structural lock. It resolves slices through an atomically
//     published slice table and holds only a striped per-slice
//     reader/writer lock (reads share, writes to the same stripe
//     serialize) for the duration of the access.
//
// Structural operations that rebind a slice (migration, recovery,
// compaction, release) additionally take that slice's stripe lock in
// write mode, so they linearize with in-flight accesses: an access
// observes the slice either entirely before or entirely after the move,
// never mid-copy.
//
// Slice movers (repair workers, migrations, compaction passes,
// foreground crash recovery) additionally serialize per slice on a
// commit-window lock (sliceBacking.commit) held for the whole move,
// while the heavy copy runs outside the structural and stripe locks and
// only a short commit window re-acquires them (see repair.go). Lock order is always
// commit-window lock → structural lock → stripe lock → erasure-coding
// stripe lock; the data path classifies failures only after dropping
// its stripe lock, so the order is never inverted, and nothing acquires
// a commit-window lock while holding any of the inner three.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/cache"
	"github.com/lmp-project/lmp/internal/coherence"
	"github.com/lmp-project/lmp/internal/failure"
	"github.com/lmp-project/lmp/internal/memnode"
	"github.com/lmp-project/lmp/internal/telemetry"
)

// SliceSize is the pool's allocation and migration granularity,
// re-exported from the addressing scheme.
const SliceSize = addr.SliceSize

// ErrServerDead reports an operation that required a crashed server.
var ErrServerDead = errors.New("core: server is down")

// ErrReleased reports use of a released buffer.
var ErrReleased = errors.New("core: buffer already released")

// ServerConfig describes one server joining a logical pool.
type ServerConfig struct {
	Name string
	// Capacity is the server's DRAM in bytes.
	Capacity int64
	// SharedBytes is the initial shared-region size (adjustable later).
	// It is rounded down to a slice multiple.
	SharedBytes int64
}

// Config configures a logical pool. It is the one way to configure one:
// every knob is a field here, and its zero value picks the default.
type Config struct {
	Servers []ServerConfig
	// Placement selects the allocation placement policy: FirstFit (the
	// zero value), RoundRobin, LocalityAware or Striped.
	Placement alloc.Policy
	// CoherenceGranularity is the coherent region's directory tracking
	// block (default 64; smaller avoids false sharing).
	CoherenceGranularity int64
	// Protection is the default protection policy Alloc applies to new
	// buffers; AllocProtected still overrides it per buffer.
	Protection failure.Policy
	// Cache configures the node-local hot-page cache and write combiner
	// (see CacheConfig and internal/core/cache.go). Off unless Enabled.
	Cache CacheConfig
	// Trace configures per-op tracing (see obs.go). The zero value
	// enables sampled tracing with the defaults.
	Trace TraceConfig
	// Repair tunes the parallel repair/migration engine (see repair.go).
	Repair RepairConfig
	// Tail tunes tail tolerance: deadline budgets, admission control,
	// per-server circuit breakers (see tail.go). The zero value disables
	// all of it.
	Tail TailConfig
	// Clock is the pool's one clock, in nanoseconds: it stamps trace
	// spans and times the accesses that feed the circuit breakers. nil
	// means telemetry.WallClock; deterministic tests inject a sim clock.
	Clock func() int64
}

// coherentBytes sizes the coherent region: plenty for coordination
// state here (a few GBs in a deployment, where a lender would hold it).
const coherentBytes = 1 << 20

func (c *Config) fillDefaults() {
	if c.CoherenceGranularity == 0 {
		c.CoherenceGranularity = 64
	}
	if c.Clock == nil {
		c.Clock = telemetry.WallClock
	}
}

// sliceBacking is the pool's one record of where a logical slice lives:
// both steps of the paper's translation (§5) in one entry. server is the
// coarse step — the owner, what every server's replica of the slice map
// names — and offset the fine step, the slice's extent in that owner's
// shared region; a byte's location is offset plus its offset in the
// slice. Both are mutated only under the structural lock plus the
// slice's stripe lock held in write mode (rebindLocked, one store per
// move); every reader — the data path, Translate, the balancer — reads
// them under the stripe lock in read (or write) mode.
type sliceBacking struct {
	server addr.ServerID
	offset int64
	buf    *Buffer
	// counts is the slice's access profile, one lane per accessing
	// server: the data path adds to it with a single atomic add, cache
	// hits are folded in once a round, the locality balancer plans from
	// it and halves it (migrate.go). It moves with the entry and ends
	// with it in teardownLocked.
	counts []atomic.Uint64

	// commit is the slice's commit-window (mover) lock: repair workers,
	// migrations, and foreground crash recovery hold it for the whole
	// move, so at most one mover re-homes the slice at a time and a
	// holder may read the fields above before re-acquiring the inner
	// locks. Never acquired while holding p.mu or a stripe lock.
	commit commitWindow

	// tracking/dirtyLo/dirtyHi form the live-migration dirty interval:
	// while a mover's pre-copy runs, writers record the byte range they
	// touched and the commit window re-copies only that delta. All three
	// are guarded by the slice's stripe lock in write mode.
	tracking bool
	dirtyLo  int64
	dirtyHi  int64
}

// startTrackingLocked arms the dirty interval for a two-phase move;
// stopTrackingLocked disarms it. Callers hold the slice's stripe lock
// in write mode.
func (b *sliceBacking) startTrackingLocked() {
	b.dirtyLo, b.dirtyHi = SliceSize, 0
	b.tracking = true
}

func (b *sliceBacking) stopTrackingLocked() { b.tracking = false }

// dirtyRangeLocked reports the written interval since arming, clamped
// to the slice; empty when hi <= lo.
func (b *sliceBacking) dirtyRangeLocked() (lo, hi int64) {
	lo, hi = b.dirtyLo, b.dirtyHi
	if lo < 0 {
		lo = 0
	}
	if hi > SliceSize {
		hi = SliceSize
	}
	return lo, hi
}

// markDirtyLocked records a write of n bytes at slice offset off.
// Called by every backing-write path under the stripe write lock; a
// single compare makes the untracked (no mover active) case free.
func (b *sliceBacking) markDirtyLocked(off, n int64) {
	if !b.tracking {
		return
	}
	if off < b.dirtyLo {
		b.dirtyLo = off
	}
	if off+n > b.dirtyHi {
		b.dirtyHi = off + n
	}
}

// sliceTable is the atomically published slice index → backing table.
// Entries are atomic so the data path reads them lock-free; the table is
// grown copy-on-write under the structural lock.
type sliceTable struct {
	entries []atomic.Pointer[sliceBacking]
}

// stripe is one lane of the striped slice lock, padded out to a cache
// line so adjacent stripes do not false-share.
type stripe struct {
	sync.RWMutex
	_ [40]byte
}

// hotPath caches the resolved counters for one (kind, locality) class of
// access, so the data path records telemetry with two atomic adds and no
// registry lookups or string building.
type hotPath struct {
	ops   *telemetry.Counter
	bytes *telemetry.Counter
}

// Pool is a logical memory pool across a set of servers.
type Pool struct {
	cfg Config

	// mu is the structural lock; see the package comment. The data path
	// never holds it.
	mu sync.Mutex
	// nodes are the lenders, one per server: each owns its shared
	// region's bytes, allocator and boundary (lender.go). Their
	// allocation locks are leaves under mu.
	nodes  []lender
	placer *alloc.Placer

	nextSlice uint64
	freeRuns  []addr.Range

	table      atomic.Pointer[sliceTable]
	stripes    []stripe
	stripeMask uint64

	buffers map[addr.Logical]*Buffer
	dead    []atomic.Bool

	dir          *coherence.Directory
	coherent     []byte
	coherentNext int64

	// migration is the locality balancer's tuning (migrate.go).
	migration migrationPolicy

	metrics *telemetry.Registry
	// hot caches access counters, indexed [write][remote].
	hot [2][2]hotPath
	// Always-on traffic breakdowns (see obs.go): srvOps/srvBytes[owner]
	// count accesses to owner's backing with lane = issuing server;
	// stripeOps counts accesses per lock stripe with lane = stripe.
	srvOps    []*telemetry.StripedCounter
	srvBytes  []*telemetry.StripedCounter
	stripeOps *telemetry.StripedCounter
	// obs is the sampled per-op tracing state; nil when disabled.
	obs *obsState

	// Node-local page cache state (nil/zero unless Config.Cache.Enabled;
	// see cache.go). caches[n] is server n's private hot-page cache;
	// pageDir is the page-granular coherence directory over those caches;
	// wc is the pool-wide write combiner, flushMu its flush serializer.
	caches    []*cache.Cache
	wc        *cache.WriteCombiner
	pageDir   *coherence.Directory
	pageSize  int64
	pageShift uint
	pagePool  sync.Pool
	flushMu   sync.Mutex
	// flushVecs is flushWC's scratch (guarded by flushMu): the batch
	// regrouped by issuer, reused from flush to flush.
	flushVecs []Vec

	cacheFills        *telemetry.Counter
	cacheFlushes      *telemetry.Counter
	cacheFlushedBytes *telemetry.Counter
	cacheWCWrites     *telemetry.Counter
	cacheInvals       *telemetry.Counter
	wcFlushBytesHist  *telemetry.Histogram

	// tail is the tail-tolerance state (admission budget, deadline
	// budget, per-server breakers); zero-valued unless Config.Tail
	// enables a feature. See tail.go.
	tail tailState
}

// New builds a pool from the configuration.
func New(cfg Config) (*Pool, error) { return newPool(cfg, nil) }

// newPool is the one constructor, and the one place a server's lender is
// built: an in-process memnode.Node per configured server. wrap, when
// non-nil, stands between each lender and the pool (tests count the
// calls that cross the seam through it).
func newPool(cfg Config, wrap func(lender) lender) (*Pool, error) {
	if len(cfg.Servers) == 0 {
		return nil, errors.New("core: pool needs at least one server")
	}
	cfg.fillDefaults()
	if err := cfg.Protection.Validate(); err != nil {
		return nil, err
	}
	dir, err := coherence.NewDirectory(cfg.CoherenceGranularity,
		int(coherentBytes/cfg.CoherenceGranularity))
	if err != nil {
		return nil, err
	}
	p := &Pool{
		cfg:       cfg,
		buffers:   make(map[addr.Logical]*Buffer),
		dead:      make([]atomic.Bool, len(cfg.Servers)),
		dir:       dir,
		coherent:  make([]byte, coherentBytes),
		metrics:   telemetry.NewRegistry(),
		migration: defaultMigrationPolicy,
	}
	p.stripes = make([]stripe, stripeCount())
	p.stripeMask = uint64(len(p.stripes) - 1)
	p.table.Store(&sliceTable{})
	p.hot[0][0] = hotPath{p.metrics.Counter("pool.reads.local"), p.metrics.Counter("pool.bytes.read.local")}
	p.hot[0][1] = hotPath{p.metrics.Counter("pool.reads.remote"), p.metrics.Counter("pool.bytes.read.remote")}
	p.hot[1][0] = hotPath{p.metrics.Counter("pool.writes.local"), p.metrics.Counter("pool.bytes.write.local")}
	p.hot[1][1] = hotPath{p.metrics.Counter("pool.writes.remote"), p.metrics.Counter("pool.bytes.write.remote")}
	var regions []*alloc.Region
	for i, sc := range cfg.Servers {
		if sc.Capacity <= 0 {
			return nil, fmt.Errorf("core: server %d has no capacity", i)
		}
		if sc.SharedBytes < 0 || sc.SharedBytes > sc.Capacity {
			return nil, fmt.Errorf("core: server %d shares %d of %d", i, sc.SharedBytes, sc.Capacity)
		}
		// Every boundary and every request is a slice multiple, so the
		// node's page-granular grants stay slice-aligned.
		n, err := memnode.New(sc.Name, sc.Capacity, sc.SharedBytes-sc.SharedBytes%SliceSize)
		if err != nil {
			return nil, err
		}
		var node lender = n
		if wrap != nil {
			node = wrap(node)
		}
		p.nodes = append(p.nodes, node)
		regions = append(regions, &alloc.Region{Server: addr.ServerID(i), Mem: node})
	}
	placer, err := alloc.NewPlacer(cfg.Placement, SliceSize, regions...)
	if err != nil {
		return nil, err
	}
	placer.MaxChunk = SliceSize
	// New placements must never land on a crashed server: repair re-homes
	// data through the same placer while the server is still marked dead.
	placer.Exclude = p.isDead
	p.placer = placer
	p.initObs()
	p.initTail()
	if cfg.Cache.Enabled {
		if err := p.initCache(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// stripeCount picks the number of slice-lock stripes: a power of two of
// at least max(64, 8×GOMAXPROCS), so goroutines rarely collide on a
// stripe they do not actually share data with.
func stripeCount() int {
	n := runtime.GOMAXPROCS(0) * 8
	if n < 64 {
		n = 64
	}
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// stripeFor returns the lock stripe guarding slice s.
func (p *Pool) stripeFor(s uint64) *stripe {
	return &p.stripes[s&p.stripeMask]
}

// lookupSlice resolves a slice index through the published table without
// any lock.
func (p *Pool) lookupSlice(s uint64) *sliceBacking {
	t := p.table.Load()
	if s >= uint64(len(t.entries)) {
		return nil
	}
	return t.entries[s].Load()
}

// setSlice publishes a backing for slice s. Caller holds p.mu.
func (p *Pool) setSlice(s uint64, b *sliceBacking) {
	t := p.table.Load()
	if s >= uint64(len(t.entries)) {
		need := s + 1
		grown := make([]atomic.Pointer[sliceBacking], need+need/2+64)
		for i := range t.entries {
			grown[i].Store(t.entries[i].Load())
		}
		t = &sliceTable{entries: grown}
		p.table.Store(t)
	}
	t.entries[s].Store(b)
}

// deleteSlice unpublishes slice s. Caller holds p.mu.
func (p *Pool) deleteSlice(s uint64) {
	t := p.table.Load()
	if s < uint64(len(t.entries)) {
		t.entries[s].Store(nil)
	}
}

// newBacking builds a backing record with an access-count lane per
// server.
func (p *Pool) newBacking(server addr.ServerID, offset int64, buf *Buffer) *sliceBacking {
	return &sliceBacking{
		server: server,
		offset: offset,
		buf:    buf,
		counts: make([]atomic.Uint64, len(p.nodes)),
	}
}

// isDead reports whether server s has crashed (lock-free).
func (p *Pool) isDead(s addr.ServerID) bool {
	return int(s) >= 0 && int(s) < len(p.dead) && p.dead[s].Load()
}

// Servers reports the number of pool servers.
func (p *Pool) Servers() int { return len(p.nodes) }

// checkServer is the one range check of a caller-supplied server id:
// every exported method that indexes per-server state goes through it.
func (p *Pool) checkServer(s addr.ServerID) error {
	if int(s) < 0 || int(s) >= len(p.nodes) {
		return fmt.Errorf("core: no server %d", s)
	}
	return nil
}

// Directory exposes the coherent region's coherence engine.
func (p *Pool) Directory() *coherence.Directory { return p.dir }

// SharedBytes reports server s's current shared-region size (zero for a
// server the pool does not have).
func (p *Pool) SharedBytes(s addr.ServerID) int64 {
	if p.checkServer(s) != nil {
		return 0
	}
	return p.nodes[s].SharedBytes()
}

// FreePoolBytes reports unallocated pool capacity.
func (p *Pool) FreePoolBytes() int64 { return p.placer.TotalFree() }

// Buffer is an allocation in the pool at a stable logical address range.
type Buffer struct {
	pool *Pool
	rng  addr.Range
	size int64
	prot failure.Policy
	// copies[c][i] backs logical slice firstSlice+i for replica copy c.
	copies [][]alloc.Chunk
	ec     *ecState

	released atomic.Bool
}

// Addr returns the buffer's base logical address (stable across
// migration).
func (b *Buffer) Addr() addr.Logical { return b.rng.Start }

// Size returns the requested byte size.
func (b *Buffer) Size() int64 { return b.size }

// Range returns the slice-aligned logical range backing the buffer.
func (b *Buffer) Range() addr.Range { return b.rng }

// Protection returns the buffer's protection policy.
func (b *Buffer) Protection() failure.Policy { return b.prot }

// Released reports whether the buffer has been released.
func (b *Buffer) Released() bool { return b.released.Load() }

func (b *Buffer) sliceCount() uint64 { return uint64(b.rng.Size / SliceSize) }

func (b *Buffer) firstSlice() uint64 { return addr.SliceOf(b.rng.Start) }

func (b *Buffer) checkWindow(off int64, n int, what string) error {
	if off < 0 || off+int64(n) > b.size {
		return fmt.Errorf("core: %s [%d,%d) outside buffer of %d", what, off, off+int64(n), b.size)
	}
	if b.released.Load() {
		return ErrReleased
	}
	return nil
}

// ReadAt copies len(p) bytes from the buffer at offset off, issued by
// server from. It fails with ErrReleased after Release.
func (b *Buffer) ReadAt(from addr.ServerID, p []byte, off int64) error {
	if err := b.checkWindow(off, len(p), "read"); err != nil {
		return err
	}
	return b.pool.Read(from, b.rng.Start+addr.Logical(off), p)
}

// WriteAt copies data into the buffer at offset off, issued by server
// from. It fails with ErrReleased after Release.
func (b *Buffer) WriteAt(from addr.ServerID, data []byte, off int64) error {
	if err := b.checkWindow(off, len(data), "write"); err != nil {
		return err
	}
	return b.pool.Write(from, b.rng.Start+addr.Logical(off), data)
}

// Alloc places size bytes in the pool with the pool's default protection.
// from is the requesting server (used by locality-aware placement).
// It fails with an error wrapping alloc.ErrNoSpace when the pool cannot
// hold the buffer.
func (p *Pool) Alloc(size int64, from addr.ServerID) (*Buffer, error) {
	return p.AllocProtected(size, from, p.cfg.Protection)
}

// AllocProtected places size bytes with an explicit protection policy.
func (p *Pool) AllocProtected(size int64, from addr.ServerID, prot failure.Policy) (*Buffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("core: alloc of %d bytes", size)
	}
	if err := prot.Validate(); err != nil {
		return nil, err
	}
	rounded := (size + SliceSize - 1) / SliceSize * SliceSize
	var chunks []alloc.Chunk
	var err error
	if prot.Scheme == failure.ErasureCode {
		// Erasure coding protects against server loss only if a stripe's
		// data shards live on distinct servers: force striped placement.
		chunks, err = p.placer.PlaceStriped(rounded)
	} else {
		chunks, err = p.placer.Place(rounded, from)
	}
	if err != nil {
		return nil, fmt.Errorf("core: alloc %d bytes: %w", size, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()

	rng := p.reserveLogicalLocked(rounded)
	b := &Buffer{pool: p, rng: rng, size: size, prot: prot}
	first := addr.SliceOf(rng.Start)
	for i, c := range chunks {
		p.setSlice(first+uint64(i), p.newBacking(c.Server, c.Offset, b))
	}
	if err := p.protectLocked(b, chunks, from); err != nil {
		p.teardownLocked(b)
		return nil, err
	}
	p.buffers[rng.Start] = b
	p.metrics.Counter("pool.allocs").Inc()
	p.metrics.Gauge("pool.bytes_allocated").Add(rounded)
	return b, nil
}

// reserveLogicalLocked finds a logical range of the given (slice-aligned)
// size, reusing freed runs first.
func (p *Pool) reserveLogicalLocked(size int64) addr.Range {
	for i, r := range p.freeRuns {
		if r.Size >= size {
			out := addr.Range{Start: r.Start, Size: size}
			p.freeRuns[i] = addr.Range{Start: r.Start + addr.Logical(size), Size: r.Size - size}
			if p.freeRuns[i].Size == 0 {
				p.freeRuns = append(p.freeRuns[:i], p.freeRuns[i+1:]...)
			}
			return out
		}
	}
	out := addr.Range{Start: addr.SliceBase(p.nextSlice), Size: size}
	p.nextSlice += uint64(size / SliceSize)
	return out
}

// freeBackingLocked returns one slice of physical backing to its lender,
// which scrubs it before granting it again: reallocated pool memory reads
// as zeros (the contract that keeps fresh replicas and parity trivially
// consistent). A dead server's books are not touched.
func (p *Pool) freeBackingLocked(server addr.ServerID, offset int64) {
	if !p.isDead(server) {
		_, _ = p.nodes[server].Free(offset)
	}
}

// teardownLocked is the one way a buffer's blocks are freed: it
// unpublishes and frees every primary, frees every replica and parity
// extent the buffer reserved, purges cached pages of the dying range and
// returns the logical run. Release calls it for a live buffer, and
// AllocProtected for one whose protection could not be placed — there
// b.copies and the parity rows hold only what was reserved before
// placement ran out. Caller holds p.mu.
func (p *Pool) teardownLocked(b *Buffer) {
	first := b.firstSlice()
	for i := uint64(0); i < b.sliceCount(); i++ {
		s := first + i
		back := p.lookupSlice(s)
		if back == nil {
			continue
		}
		// The stripe lock drains in-flight accesses to the slice before
		// its backing disappears; for erasure-coded buffers the EC lock
		// additionally orders the free against a reconstruction snapshot,
		// which reads sibling backings under ec.mu alone.
		st := p.stripeFor(s)
		st.Lock()
		if b.ec != nil {
			b.ec.mu.Lock()
		}
		p.deleteSlice(s)
		p.freeBackingLocked(back.server, back.offset)
		if b.ec != nil {
			b.ec.mu.Unlock()
		}
		if p.caches != nil {
			// The logical range is dying and may be reallocated: cached
			// pages and buffered writes into it must die with it.
			p.purgeSlicePagesLocked(s)
		}
		st.Unlock()
	}
	for _, replica := range b.copies {
		for _, c := range replica {
			p.freeBackingLocked(c.Server, c.Offset)
		}
	}
	if b.ec != nil {
		// Parity extents are read under ec.mu by reconstruction and the
		// parity-delta path; free them under the same lock.
		b.ec.mu.Lock()
		for _, st := range b.ec.stripes {
			for _, pb := range st.parity {
				p.freeBackingLocked(pb.server, pb.offset)
			}
		}
		b.ec.mu.Unlock()
	}
	p.freeRuns = append(p.freeRuns, b.rng)
}

// Release frees the buffer, its replicas, and its parity blocks. A
// second Release, and any access after the first, fails with
// ErrReleased.
func (b *Buffer) Release() error {
	p := b.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if b.released.Swap(true) {
		return ErrReleased
	}
	p.teardownLocked(b)
	delete(p.buffers, b.rng.Start)
	p.metrics.Gauge("pool.bytes_allocated").Add(-b.rng.Size)
	return nil
}

// sliceSegment returns the piece of [la, la+n) that starts done bytes in
// and ends at the next slice boundary (or the end of the range): the one
// walker every foreground path splits an access with.
func sliceSegment(la addr.Logical, n, done int) (s uint64, sliceOff int64, length int) {
	cur := la + addr.Logical(done)
	s = addr.SliceOf(cur)
	sliceOff = int64(uint64(cur) % SliceSize)
	length = int(SliceSize - sliceOff)
	if rem := n - done; rem < length {
		length = rem
	}
	return s, sliceOff, length
}

// Read copies len(buf) bytes at logical address la into buf, as issued by
// server from. Remote segments pay fabric accounting; crashed owners are
// masked through replicas or erasure coding when the buffer is protected.
// It fails with an error wrapping addr.ErrUnmapped for unallocated
// addresses (additionally wrapping ErrReleased if the range was freed by
// Release), and with a failure.MemoryException when an unprotected owner
// has crashed.
func (p *Pool) Read(from addr.ServerID, la addr.Logical, buf []byte) error {
	return p.access(nil, from, trRead, []Vec{{Addr: la, Data: buf}})
}

// Write copies data into the pool at logical address la, as issued by
// server from, updating replicas and parity. Its error contract matches
// Read's.
func (p *Pool) Write(from addr.ServerID, la addr.Logical, data []byte) error {
	return p.access(nil, from, trWrite, []Vec{{Addr: la, Data: data}})
}

// access is the one entry every public foreground operation goes through:
// admission, the default deadline budget (only for callers that brought a
// context), the trace decision, the dispatch by kind, and the root span's
// completion. A single-address op arrives as a vector of one element,
// which never leaves its caller's stack: passing (la, buf, vecs) side by
// side instead pushed the argument list out of registers and cost the
// dominant op — an untraced cache hit of some fifty nanoseconds — ten
// more, measured.
func (p *Pool) access(ctx context.Context, from addr.ServerID, kind int, vecs []Vec) error {
	if p.tail.limit != 0 {
		if !p.admit() {
			return errPoolOverloaded
		}
		defer p.release()
	}
	// An untraced op — 63 in 64 — threads the zero SpanContext, under which
	// the inner layers record nothing. A context-less op has no parent span
	// to inherit, so its trace decision is the sampler alone.
	var sp telemetry.Span
	var sc telemetry.SpanContext
	traced := false
	if ctx != nil {
		var cancel context.CancelFunc
		if ctx, cancel = p.withBudget(ctx); cancel != nil {
			defer cancel()
		}
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if parent, ok := p.shouldTrace(ctx); ok {
			traced, sp = true, p.startOp(parent, from, kind)
		}
	} else if o := p.obs; o != nil && o.sampler.Hit() {
		traced, sp = true, p.startOp(telemetry.SpanContext{}, from, kind)
	}
	if traced {
		sc = sp.Context()
	}
	var err error
	if kind == trReadV || kind == trWriteV {
		err = p.vectored(ctx, sc, from, vecs, kind == trWriteV, false)
	} else {
		la, buf := vecs[0].Addr, vecs[0].Data
		switch cached := p.cacheEnabledFor(from); {
		case kind == trRead && cached:
			err = p.cachedRead(ctx, sc, from, la, buf)
		case kind == trRead:
			err = p.directAccess(ctx, sc, from, la, buf, accessRead)
		case cached:
			err = p.cachedWrite(ctx, sc, from, la, buf)
		default:
			err = p.directAccess(ctx, sc, from, la, buf, accessWrite)
		}
	}
	if traced {
		p.endOp(&sp, kind, vecBytes(vecs), err)
	}
	return err
}

// accessStatus is the outcome of one locked access attempt.
type accessStatus int

const (
	accessOK       accessStatus = iota
	accessMissing               // no backing published for the slice
	accessDead                  // the owning server has crashed
	accessDegraded              // owner's breaker open and no live replica to read from
	accessFailed                // I/O or protection error (see err)
)

// maxRecoverAttempts bounds how many times one access retries through
// crash recovery before reporting the server dead.
const maxRecoverAttempts = 3

// settle is the one step between locked attempts: it turns an attempt's
// verdict on slice s into the caller's error, or — for a crashed owner,
// up to bound attempts — rebuilds the slice and asks for a retry. Failure
// classification happens only here, after the stripe lock is dropped,
// keeping the structural → stripe lock order acyclic.
func (p *Pool) settle(sc telemetry.SpanContext, status accessStatus, s uint64, err error, attempt, bound int) (retry bool, _ error) {
	switch status {
	case accessOK:
		return false, nil
	case accessMissing:
		return false, p.missingSliceError(s)
	case accessDegraded:
		return false, errDegradedRead
	case accessDead:
		if attempt >= bound {
			return false, fmt.Errorf("%w: slice %d not recoverable", ErrServerDead, s)
		}
		if err := p.recoverSlice(sc, s); err != nil {
			return false, err
		}
		return true, nil
	default:
		return false, err
	}
}

// accessOp selects what the locked single-slice body does.
type accessOp uint8

const (
	accessRead  accessOp = iota
	accessWrite          // primary + protection, under the stripe write lock
	accessFill           // a read that also installs the page in the issuer's cache
)

// directAccess performs a read or write against backing, bypassing the
// page cache (the overlay and invalidation hooks in the locked body keep
// it coherent with the write combiner and cached copies). The context is
// checked between slice segments.
func (p *Pool) directAccess(ctx context.Context, sc telemetry.SpanContext, from addr.ServerID, la addr.Logical, buf []byte, op accessOp) error {
	for done := 0; done < len(buf); {
		if done > 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		s, off, n := sliceSegment(la, len(buf), done)
		if err := p.accessSlice(sc, from, s, off, buf[done:done+n], op); err != nil {
			return err
		}
		done += n
	}
	return nil
}

// accessSlice performs one intra-slice access, retrying through crash
// recovery when the owner is dead. The breaker feed (an rpc-side leaf
// mutex) happens here, after the unlock, so no rpc-reaching call of the
// feed runs under a stripe.
func (p *Pool) accessSlice(sc telemetry.SpanContext, from addr.ServerID, s uint64, sliceOff int64, part []byte, op accessOp) error {
	for attempt := 0; ; attempt++ {
		var ta tailAccess
		status, err := p.accessSliceOnce(sc, from, s, sliceOff, part, op, &ta)
		p.feedBreaker(&ta)
		if retry, err := p.settle(sc, status, s, err, attempt, maxRecoverAttempts); !retry {
			return err
		}
	}
}

// blockRef names the slice-sized block where a foreground access of one
// slice meets a node: the primary, or for a shed read a replica block
// standing in for it.
type blockRef struct {
	server addr.ServerID
	offset int64
	shed   bool
}

// resolveLocked is the one resolve of the foreground path: the slice's
// backing, and the block its bytes are served from. A write always goes
// to the primary — the protection path is what keeps replicas coherent. A
// read whose owner's breaker is open is shed to the first live replica
// whose own breaker is not open, which is coherence-safe under the stripe
// read lock (replica bytes are only written under the stripe write lock,
// by writeReplicas, so the copy is frozen and never diverges from
// committed primary data); with no such replica the verdict is
// accessDegraded. The decision cannot move outside the stripe: it must
// see the same owner the access uses. Caller holds s's stripe lock.
func (p *Pool) resolveLocked(s uint64, read bool) (*sliceBacking, blockRef, accessStatus) {
	back := p.lookupSlice(s)
	if back == nil {
		return nil, blockRef{}, accessMissing
	}
	if p.isDead(back.server) {
		return nil, blockRef{}, accessDead
	}
	if !read || p.tail.breakers == nil || !p.breakerOpen(back.server) {
		return back, blockRef{server: back.server, offset: back.offset}, accessOK
	}
	if buf := back.buf; buf != nil && buf.prot.Scheme == failure.Replicate {
		idx := s - buf.firstSlice()
		for _, cp := range buf.copies {
			if idx >= uint64(len(cp)) {
				continue
			}
			if c := cp[idx]; !p.isDead(c.Server) && !p.breakerOpen(c.Server) {
				return back, blockRef{server: c.Server, offset: c.Offset, shed: true}, accessOK
			}
		}
	}
	p.tail.degradedFails.Inc()
	return nil, blockRef{}, accessDegraded
}

// readLocked copies the authoritative bytes of [la, la+len(dst)) — which
// start sliceOff into the block src names — into dst: the backing bytes
// composed with the write-combiner overlay, since bytes shadowed by a
// buffered write must never be returned raw. Caller holds the covering
// stripe lock(s).
func (p *Pool) readLocked(sc telemetry.SpanContext, src blockRef, la uint64, sliceOff int64, dst []byte) error {
	if err := p.nodes[src.server].ReadAt(dst, src.offset+sliceOff); err != nil {
		return err
	}
	if p.wc != nil {
		p.wc.OverlayRange(la, dst)
	}
	if src.shed {
		p.tail.replicaSheds.Inc()
		if sp, ok := p.beginChild(sc, "pool.read.replica_shed"); ok {
			sp.Server = int(src.server)
			p.endChild(&sp, len(dst), nil)
		}
	}
	return nil
}

// accountAccess is the one accounting hook of the foreground path: a
// per-slice count in the entry's access profile (one atomic add each)
// and one op of n bytes against the serving server in the traffic
// counters. backs has more than one element for a coalesced vectored run.
func (p *Pool) accountAccess(from, served addr.ServerID, s uint64, write bool, n int, backs ...*sliceBacking) {
	for _, back := range backs {
		if int(from) >= 0 && int(from) < len(back.counts) {
			back.counts[from].Add(1)
		}
	}
	p.recordAccessMetrics(from, served, s, served != from, write, n)
}

// accessSliceOnce is the locked body of one single-slice attempt. It
// acquires exactly one stripe lock and releases it on every path through a
// single deferred unlock, so no branch can leak or double-release the lock.
// An accessFill of a remotely backed page goes through fillLocked, which
// also installs the page in the issuer's cache; the stripe lock orders
// fills against invalidating writers (which hold it in write mode), so a
// stale fill cannot overwrite an invalidation. Locally backed pages are
// not cached — backing DRAM is already local.
func (p *Pool) accessSliceOnce(sc telemetry.SpanContext, from addr.ServerID, s uint64, sliceOff int64, part []byte, op accessOp, ta *tailAccess) (accessStatus, error) {
	lock := p.stripeFor(s)
	if op == accessWrite {
		lock.Lock()
		defer lock.Unlock()
	} else {
		lock.RLock()
		defer lock.RUnlock()
	}
	back, src, status := p.resolveLocked(s, op != accessWrite)
	if status != accessOK {
		return status, nil
	}
	la := uint64(addr.SliceBase(s)) + uint64(sliceOff)
	p.startIO(ta, src.server)
	var err error
	switch {
	case op == accessWrite:
		if err = p.writeSliceLocked(back, p.nodes[src.server], s, sliceOff, src.offset+sliceOff, part); err == nil && p.caches != nil {
			p.applyWriteCoherenceLocked(sc, from, la, part)
		}
	case op == accessFill && back.server != from:
		err = p.fillLocked(sc, from, src, la, sliceOff, part)
	default:
		err = p.readLocked(sc, src, la, sliceOff, part)
	}
	p.endIO(ta, err)
	if err != nil {
		return accessFailed, err
	}
	p.accountAccess(from, src.server, s, op == accessWrite, len(part), back)
	return accessOK, nil
}

// writeSliceLocked applies a write to the primary backing and its
// protection state. Caller holds the slice's stripe lock in write mode.
func (p *Pool) writeSliceLocked(back *sliceBacking, node lender, s uint64, sliceOff, offset int64, part []byte) error {
	back.markDirtyLocked(sliceOff, int64(len(part)))
	buf := back.buf
	if buf != nil && buf.prot.Scheme == failure.ErasureCode {
		// Erasure-coded writes delta the parity from the old bytes; the
		// read-modify-write of shared parity blocks is serialized by the
		// buffer's EC lock (writers of sibling slices share parity).
		buf.ec.mu.Lock()
		defer buf.ec.mu.Unlock()
		sp := byteScratch.Get().(*[]byte)
		defer byteScratch.Put(sp)
		old := *sp
		if cap(old) < len(part) {
			old = make([]byte, len(part))
			*sp = old
		}
		old = old[:len(part)]
		if err := node.ReadAt(old, offset); err != nil {
			return err
		}
		if err := node.WriteAt(part, offset); err != nil {
			return err
		}
		return p.writeParityDelta(buf, s-buf.firstSlice(), sliceOff, old, part)
	}
	if err := node.WriteAt(part, offset); err != nil {
		return err
	}
	if buf != nil && buf.prot.Scheme == failure.Replicate {
		return p.writeReplicas(buf, s-buf.firstSlice(), sliceOff, part)
	}
	return nil
}

// byteScratch pools transient byte buffers for the protected-write
// read-modify-write paths, which would otherwise allocate per operation.
var byteScratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// missingSliceError classifies an access to a slice with no backing:
// addresses inside a freed logical run report the release, others are
// plainly unmapped. Both wrap addr.ErrUnmapped.
func (p *Pool) missingSliceError(s uint64) error {
	la := addr.SliceBase(s)
	p.mu.Lock()
	released := false
	for _, r := range p.freeRuns {
		if r.Contains(la) {
			released = true
			break
		}
	}
	p.mu.Unlock()
	if released {
		return fmt.Errorf("%w: %w: slice %d", ErrReleased, addr.ErrUnmapped, s)
	}
	return fmt.Errorf("%w: slice %d", addr.ErrUnmapped, s)
}

// recoverSlice rebuilds a slice whose owner crashed, taking the
// structural lock (the access path calls it with no stripe lock held).
// Recovery is always traced when tracing is on — as a child of the
// failing op's span when that op was sampled, as a fresh root trace
// otherwise — because a crashed-owner detour is exactly the kind of
// tail event the ring exists to explain.
func (p *Pool) recoverSlice(sc telemetry.SpanContext, s uint64) error {
	o := p.obs
	if o == nil {
		return p.recoverSliceInner(s)
	}
	sp := o.tracer.Begin(sc, "pool.recover")
	err := p.recoverSliceInner(s)
	p.endChild(&sp, 0, err)
	return err
}

func (p *Pool) recoverSliceInner(s uint64) error {
	for attempt := 0; attempt < maxRecoverAttempts; attempt++ {
		back := p.lookupSlice(s)
		if back == nil {
			return fmt.Errorf("%w: slice %d", addr.ErrUnmapped, s)
		}
		// back.server is mutated by rebindLocked under the stripe write
		// lock; a brief read hold synchronizes this pre-check with a
		// concurrent mover's commit (we hold no stripe lock here).
		lock := p.stripeFor(s)
		lock.RLock()
		owner := back.server
		lock.RUnlock()
		if !p.isDead(owner) {
			return nil // another mover already recovered it
		}
		// Serialize with other movers on the commit-window lock. A repair
		// worker holding it finishes the rebuild for us; the re-lookup
		// below catches a release-and-remap that happened while we waited.
		back.commit.Lock()
		if p.lookupSlice(s) != back {
			back.commit.Unlock()
			continue
		}
		err := p.repairSliceCommitted(s, back)
		back.commit.Unlock()
		return err
	}
	return fmt.Errorf("%w: slice %d not recoverable", ErrServerDead, s)
}

// recordAccessMetrics bumps the cached op and byte counters: the
// (kind, locality) class totals plus the per-owning-server and
// per-stripe striped breakdowns (lane = issuing server / stripe).
//
//lmp:hotpath
func (p *Pool) recordAccessMetrics(from, owner addr.ServerID, s uint64, remote, write bool, n int) {
	w, r := 0, 0
	if write {
		w = 1
	}
	if remote {
		r = 1
	}
	h := &p.hot[w][r]
	// One pin covers all five updates: while pinned this P's counter
	// cells are exclusively ours, so each add is a plain load + store
	// instead of a lock-prefixed RMW. Measured on the Zipf benchmark,
	// five shared atomic adds here cost more than the rest of a cached
	// read combined.
	u := telemetry.BeginUpdate()
	h.ops.AddAt(u, 1)
	h.bytes.AddAt(u, uint64(n))
	p.srvOps[owner].AddAt(u, int(from), 1)
	p.srvBytes[owner].AddAt(u, int(from), uint64(n))
	p.stripeOps.AddAt(u, int(s&p.stripeMask), 1)
	telemetry.EndUpdate()
}

// homeOf reads slice s's home — the entry's (server, extent offset) —
// under its stripe read lock, exactly as the data path resolves it, so a
// mover's commit is seen whole or not at all. It never takes p.mu.
func (p *Pool) homeOf(s uint64) (addr.Location, bool) {
	lock := p.stripeFor(s)
	lock.RLock()
	defer lock.RUnlock()
	back := p.lookupSlice(s)
	if back == nil {
		return addr.Location{}, false
	}
	return addr.Location{Server: back.server, Offset: back.offset}, true
}

// Translate resolves a logical address to its physical location: the
// slice entry names the owner (the coarse step) and the slice's extent
// there, and the fine step adds the offset within the slice. It fails
// with an error wrapping addr.ErrUnmapped for an unallocated address.
func (p *Pool) Translate(la addr.Logical) (addr.Location, error) {
	loc, ok := p.homeOf(addr.SliceOf(la))
	if !ok {
		return addr.Location{}, fmt.Errorf("%w: %#x", addr.ErrUnmapped, uint64(la))
	}
	loc.Offset += int64(uint64(la) % SliceSize)
	return loc, nil
}

// OwnerOf reports which server currently backs la.
func (p *Pool) OwnerOf(la addr.Logical) (addr.ServerID, error) {
	loc, err := p.Translate(la)
	if err != nil {
		return addr.NoServer, err
	}
	return loc.Server, nil
}
