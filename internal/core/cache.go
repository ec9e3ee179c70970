package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/cache"
	"github.com/lmp-project/lmp/internal/coherence"
	"github.com/lmp-project/lmp/internal/telemetry"
)

// This file wires the node-local hot-page cache and write combiner
// (internal/cache) into the pool's data path — the Config.Cache
// feature. The paper's §5 "locality balancing" challenge splits into two
// time scales: the cache serves short-term reuse from local DRAM, while
// the migration balancer (BalanceOnce) handles long-term placement; the
// cache's hit counts are folded into the slice entries the balancer
// plans from (foldCacheHits) so a sustained-hot remote slice is still
// promoted (migrated local) even when the cache absorbs its reads.
//
// Coherence protocol. Each node has its own read cache; a dedicated
// page-granular coherence.Directory (separate from the coherent region's
// directory) records which nodes cache which page, and records nothing
// else: at quiescence its registrations are exactly the resident pages
// (checkCacheLocked asserts both directions).
//
//   - Fill: under the slice's stripe lock in read mode, the filler reads
//     the page's authoritative bytes (readLocked: the primary's — or,
//     when the owner's breaker is open, a live replica's — composed with
//     the buffered-write overlay), inserts the page into its own cache,
//     registers with AcquireRead, and then sends the eviction notice:
//     Evict for the page the insert displaced, which the directory drops
//     only if that cache still lacks it when re-checked under the
//     directory lock. The victim may belong to any slice, so its stripe
//     lock is not held; insert-then-register plus the re-check is what
//     keeps a concurrent re-fill of the victim by the same node
//     registered.
//   - Write: under the stripe lock in write mode, the writer calls
//     WriteNoAllocate (the cache does not allocate on a write): every
//     other holder is killed and its copy discarded, and the writer's
//     own copy is updated in place if, and only if, the directory says it
//     holds one. A page nobody caches is not admitted. Fills and writes
//     to the same slice are serialized by the stripe lock, so a fill can
//     never insert a page a concurrent writer just invalidated.
//   - Release and re-homing drop the discarded copies' registrations
//     under the same stripe lock (dropCachedPagesLocked).
//   - Crash: Crash purges the dead node's cache and DropNodes it from
//     the directory — purge only, never write back (copies are clean by
//     construction).
//   - Capacity evictions (cache-side and directory back-invalidation)
//     never write back either. With exact registrations the directory,
//     sized at twice the caches' pages, does not fill, so
//     back-invalidation is a safety net rather than a steady state.
//
// Write combining. Small remote writes are buffered in a pool-wide
// combiner and applied later as one vectored write per issuing node.
// Until flushed, the authoritative bytes of a range are
// overlay(backing, flushing batch, pending writes) in that order; every
// foreground read — direct, cache fill, vectored run, replica shed —
// takes its bytes through the one hook that composes that overlay
// (readLocked in pool.go), so an accepted
// write is never invisible and never lost: Release drops pending writes
// with the range, and a crash of the backing owner leaves the buffered
// write to be applied after recovery.
//
// Lock order (extends the package comment's): structural → stripe →
// {ec.mu, wc.mu, directory.mu → cache shard}. The flush mutex precedes
// stripe locks (flushWC → vectored) and is never taken under one.

// CacheConfig configures the optional node-local page cache and write
// combiner (Config.Cache). Enabled, each server keeps clean copies of hot
// remote pages in its private DRAM (coherence-safe: remote writers
// invalidate them through a page directory), and small remote writes
// coalesce into vectored flushes. Beyond Enabled, the zero value picks
// the defaults: capacity a quarter of each node's private carve-out,
// 4KiB pages, write combining on. The shard count and the combiner's
// flush limits follow from the capacity (cacheShards, wcLimits). Cache
// hit counts still feed the locality balancer, so sustained-hot pages
// are eventually migrated, not just cached.
type CacheConfig struct {
	// Enabled turns the cache on.
	Enabled bool
	// CapacityBytes, if positive, fixes every node's cache capacity;
	// zero sizes each node's cache at cacheFraction of its private
	// (non-shared) carve-out. Negative is refused.
	CapacityBytes int64
	// PageSize is the cache page size (power of two dividing SliceSize;
	// default 4096).
	PageSize int64
}

func (c *CacheConfig) fillDefaults() {
	if c.PageSize == 0 {
		c.PageSize = cache.DefaultPageSize
	}
}

// cacheFraction is the share of a node's private carve-out its cache
// takes when CacheConfig.CapacityBytes is zero.
const cacheFraction = 0.25

// cacheShards is the shard count of a cache of pages pages: one lock
// shard per 4 pages, up to 16. With wcLimits it is the whole of a
// cache's shape beyond its capacity; a 16 MiB cache of 4 KiB pages gets
// 16 shards and a combiner that flushes past 128 KiB or 128 writes.
func cacheShards(pages int64) int { return int(min(max(pages/4, 1), 16)) }

// wcLimits are the write combiner's flush limits in front of caches whose
// smallest holds pages pages of pageSize bytes: more than 1/128 of its
// bytes (up to 128 KiB) or more than one write per 4 pages (up to 128).
func wcLimits(pages, pageSize int64) (maxBytes, maxCount int) {
	return int(min(max(pages*pageSize/128, 1), 128<<10)), int(min(max(pages/4, 1), 128))
}

// wcMaxWrite is the largest single write the combiner absorbs (capped at
// the cache page size); larger writes go straight to backing.
const wcMaxWrite = 1024

// initCache builds the per-node caches, the page coherence directory,
// and the write combiner. Called from New after the nodes exist.
func (p *Pool) initCache() error {
	cc := p.cfg.Cache
	cc.fillDefaults()
	if cc.PageSize <= 0 || cc.PageSize&(cc.PageSize-1) != 0 || SliceSize%cc.PageSize != 0 {
		return fmt.Errorf("core: cache page size %d must be a power of two dividing the slice size", cc.PageSize)
	}
	if cc.CapacityBytes < 0 {
		return fmt.Errorf("core: cache capacity %d is negative", cc.CapacityBytes)
	}
	p.pageSize = cc.PageSize
	for ps := cc.PageSize; ps > 1; ps >>= 1 {
		p.pageShift++
	}
	totalPages, minPages := int64(0), int64(math.MaxInt64)
	p.caches = make([]*cache.Cache, len(p.nodes))
	for i, node := range p.nodes {
		capBytes := cc.CapacityBytes
		if capBytes == 0 {
			private := p.cfg.Servers[i].Capacity - node.SharedBytes()
			capBytes = int64(cacheFraction * float64(private))
			if capBytes == 0 {
				// No private carve-out to borrow from: a small default
				// keeps the cache meaningful on shared-only nodes.
				capBytes = 4 << 20
			}
		}
		pages := capBytes / cc.PageSize
		c, err := cache.New(cache.Config{CapacityBytes: capBytes, PageSize: cc.PageSize, Shards: cacheShards(pages)})
		if err != nil {
			return err
		}
		p.caches[i] = c
		totalPages += pages
		minPages = min(minPages, pages)
	}
	// The inclusive snoop filter must comfortably track every resident
	// page across all nodes; 2x slack plus a floor bounds back-
	// invalidation churn.
	dirCap := totalPages * 2
	if dirCap < 1024 {
		dirCap = 1024
	}
	dir, err := coherence.NewDirectory(cc.PageSize, int(dirCap))
	if err != nil {
		return err
	}
	// Only fillLocked registers a holder, and only for an issuer with a
	// cache, so every NodeID the directory hands back indexes p.caches.
	dir.OnBackInvalidate = func(block int64, holders []coherence.NodeID) {
		for _, h := range holders {
			p.caches[h].Invalidate(uint64(block))
		}
	}
	dir.Resident = func(node coherence.NodeID, block int64) bool {
		return p.caches[node].Contains(uint64(block))
	}
	p.pageDir = dir
	// The combiner is the pool's, in front of every node's cache: the
	// smallest cache sizes it.
	wcBytes, wcCount := wcLimits(minPages, cc.PageSize)
	p.wc = cache.NewWriteCombiner(cc.PageSize, wcBytes, wcCount)
	p.pagePool = sync.Pool{New: func() any {
		b := make([]byte, cc.PageSize)
		return &b
	}}
	p.cacheFills = p.metrics.Counter("pool.cache.fills")
	p.cacheFlushes = p.metrics.Counter("pool.cache.flushes")
	p.cacheFlushedBytes = p.metrics.Counter("pool.cache.flushed_bytes")
	p.cacheWCWrites = p.metrics.Counter("pool.cache.wc_writes")
	p.cacheInvals = p.metrics.Counter("pool.cache.invalidations")
	p.wcFlushBytesHist = p.metrics.Histogram("pool.cache.flush_bytes")
	return nil
}

// cacheEnabledFor reports whether the cached data path serves requests
// from this node. Out-of-range issuers fall back to the direct path,
// which tolerates them.
func (p *Pool) cacheEnabledFor(from addr.ServerID) bool {
	return p.caches != nil && int(from) >= 0 && int(from) < len(p.caches)
}

// cachedRead is the read path for cache-enabled pools. Reads up to one
// page long are served per page through the cache; larger reads bypass
// it (a streaming read would only churn the clock) but still observe
// buffered writes through the overlay in readLocked. Locally backed pages
// are never admitted — backing DRAM is already local — but the hit path
// does not probe ownership up front: a local read simply misses and the
// fill serves it directly, so the dominant case (a hit on a hot remote
// page) pays exactly one shard lookup. A hit touches no node, so it
// consults no breaker; a miss goes through the locked body like any read.
func (p *Pool) cachedRead(ctx context.Context, sc telemetry.SpanContext, from addr.ServerID, la addr.Logical, buf []byte) error {
	if int64(len(buf)) > p.pageSize {
		return p.directAccess(ctx, sc, from, la, buf, accessRead)
	}
	// Fast path: the read fits one cache page. The dominant case is kept
	// clear of the loop's bookkeeping, which is measurable on a ~50 ns hit.
	if cur := uint64(la); int(cur&uint64(p.pageSize-1))+len(buf) <= int(p.pageSize) {
		if p.caches[from].ReadAt(cur>>p.pageShift, buf, int(cur&uint64(p.pageSize-1))) {
			return nil
		}
		return p.fillPage(sc, from, cur, buf)
	}
	for done := 0; done < len(buf); {
		if done > 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		cur := uint64(la) + uint64(done)
		po := int(cur & uint64(p.pageSize-1))
		span := min(int(p.pageSize)-po, len(buf)-done)
		if dst := buf[done : done+span]; !p.caches[from].ReadAt(cur>>p.pageShift, dst, po) {
			if err := p.fillPage(sc, from, cur, dst); err != nil {
				return err
			}
		}
		done += span
	}
	return nil
}

// fillPage is the miss path: an accessFill through the locked body, with
// the same crash-recovery retry as a direct access. A traced read records
// the miss as a "pool.cache.fill" child span — the hit path records
// nothing, so the span's presence is itself the hit/miss signal.
func (p *Pool) fillPage(sc telemetry.SpanContext, from addr.ServerID, la uint64, dst []byte) error {
	sp, traced := p.beginChild(sc, "pool.cache.fill")
	if traced {
		sp.Server = int(from)
		sc = sp.Context()
	}
	err := p.accessSlice(sc, from, addr.SliceOf(addr.Logical(la)), int64(la%SliceSize), dst, accessFill)
	if traced {
		p.endChild(&sp, len(dst), err)
	}
	return err
}

// fillLocked is the remote-page half of a cache miss: it reads the whole
// page holding [la, la+len(dst)) from src, inserts it into the issuer's
// cache, registers the copy with the page directory, tells the directory
// which copy the insert evicted, and serves dst from the page. Caller
// holds the slice's stripe lock in read mode.
func (p *Pool) fillLocked(sc telemetry.SpanContext, from addr.ServerID, src blockRef, la uint64, sliceOff int64, dst []byte) error {
	po := int(la & uint64(p.pageSize-1))
	pageAddr := la - uint64(po)
	sp := p.pagePool.Get().(*[]byte)
	defer p.pagePool.Put(sp)
	scratch := *sp
	if err := p.readLocked(sc, src, pageAddr, sliceOff-int64(po), scratch); err != nil {
		return err
	}
	node := coherence.NodeID(from)
	victim, evicted := p.caches[from].Put(pageAddr>>p.pageShift, scratch)
	if _, err := p.pageDir.AcquireRead(node, int64(pageAddr)); err != nil {
		p.caches[from].Invalidate(pageAddr >> p.pageShift) // unregistered: must not stay
	}
	if evicted {
		p.pageDir.Evict(node, int64(victim<<p.pageShift))
	}
	copy(dst, scratch[po:po+len(dst)])
	p.cacheFills.Inc()
	return nil
}

// cachedWrite is the write path for cache-enabled pools: small writes
// whose first slice is remote are absorbed by the write combiner;
// everything else goes to backing directly, after flushing any buffered
// writes that overlap the range (a direct write must not be shadowed by
// an older buffered one).
func (p *Pool) cachedWrite(ctx context.Context, sc telemetry.SpanContext, from addr.ServerID, la addr.Logical, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if len(data) <= min(wcMaxWrite, int(p.pageSize)) {
		// The owner is read under the stripe lock (homeOf), as every
		// reader of a slice entry does: a mover rewrites it under that lock.
		if home, ok := p.homeOf(addr.SliceOf(la)); ok && home.Server != from {
			return p.wcWrite(ctx, sc, from, la, data)
		}
	}
	if p.wc.PendingInRange(uint64(la), len(data)) {
		if err := p.flushWC(); err != nil {
			return err
		}
	}
	return p.directAccess(ctx, sc, from, la, data, accessWrite)
}

// accessWCConflict reports a buffered write refused for partial overlap
// with an existing one; the caller flushes and retries.
const accessWCConflict accessStatus = 100

// wcWrite buffers a small write, slice segment by slice segment.
func (p *Pool) wcWrite(ctx context.Context, sc telemetry.SpanContext, from addr.ServerID, la addr.Logical, data []byte) error {
	shouldFlush := false
	for done := 0; done < len(data); {
		if done > 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		s, _, n := sliceSegment(la, len(data), done)
		if err := p.wcWriteSlice(sc, from, s, uint64(la)+uint64(done), data[done:done+n], &shouldFlush); err != nil {
			return err
		}
		done += n
	}
	if shouldFlush {
		return p.flushWC()
	}
	return nil
}

// wcWriteSlice buffers one intra-slice write, flushing and retrying on
// overlap conflicts.
func (p *Pool) wcWriteSlice(sc telemetry.SpanContext, from addr.ServerID, s uint64, la uint64, part []byte, shouldFlush *bool) error {
	for attempt := 0; ; attempt++ {
		status := p.wcWriteSliceOnce(sc, from, s, la, part, shouldFlush)
		if status != accessWCConflict {
			_, err := p.settle(sc, status, s, nil, 0, 0)
			return err
		}
		if err := p.flushWC(); err != nil {
			return err
		}
		if attempt >= maxRecoverAttempts {
			// Concurrent writers keep landing on the range; take the
			// direct path (the flush above preserved ordering).
			return p.accessSlice(sc, from, s, int64(la-uint64(addr.SliceBase(s))), part, accessWrite)
		}
	}
}

// wcWriteSliceOnce is the locked body of one buffered-write attempt.
// Note a dead backing owner does not block it (so it does not go through
// resolveLocked): the pool accepts the bytes now and the flush applies
// them after recovery re-homes the slice — buffered writes survive
// crashes of servers they never reached.
func (p *Pool) wcWriteSliceOnce(sc telemetry.SpanContext, from addr.ServerID, s uint64, la uint64, part []byte, shouldFlush *bool) accessStatus {
	lock := p.stripeFor(s)
	lock.Lock()
	defer lock.Unlock()
	back := p.lookupSlice(s)
	if back == nil {
		return accessMissing
	}
	ok, fl := p.wc.Add(int(from), la, part)
	if !ok {
		return accessWCConflict
	}
	if fl {
		*shouldFlush = true
	}
	p.applyWriteCoherenceLocked(sc, from, la, part)
	p.accountAccess(from, back.server, s, true, len(part), back)
	p.cacheWCWrites.Inc()
	return accessOK
}

// applyWriteCoherenceLocked runs the write side of the coherence
// protocol for [la, la+len(data)): for each touched page the directory
// kills every other holder, whose cached copy is discarded, and the
// writer's own copy — which exists only if the directory says the writer
// holds one — is updated in place. The page cache does not allocate on a
// write, so a page nobody caches costs one directory lookup and is left
// untracked. Caller holds the covering stripe lock(s) in write mode.
func (p *Pool) applyWriteCoherenceLocked(sc telemetry.SpanContext, from addr.ServerID, la uint64, data []byte) {
	if len(data) == 0 {
		return
	}
	sp, traced := p.beginChild(sc, "pool.coherence.write")
	if traced {
		sp.Server = int(from)
	}
	first := la >> p.pageShift
	last := (la + uint64(len(data)) - 1) >> p.pageShift
	for pg := first; pg <= last; pg++ {
		pageAddr := pg << p.pageShift
		killed, holds := p.pageDir.WriteNoAllocate(coherence.NodeID(from), int64(pageAddr))
		for _, k := range killed {
			p.caches[k].Invalidate(pg)
		}
		if len(killed) > 0 {
			p.cacheInvals.Add(uint64(len(killed)))
		}
		if holds {
			lo := max(la, pageAddr)
			hi := min(la+uint64(len(data)), pageAddr+uint64(p.pageSize))
			p.caches[from].WriteAt(pg, data[lo-la:hi-la], int(lo-pageAddr))
		}
	}
	if traced {
		p.endChild(&sp, len(data), nil)
	}
}

// dropCachedPagesLocked discards server n's cached copies of the pages
// of slice s, and their registrations with the page directory. Caller
// holds the slice's stripe lock in write mode, so no fill of the slice
// can race the drop.
func (p *Pool) dropCachedPagesLocked(n addr.ServerID, s uint64) {
	first := uint64(addr.SliceBase(s)) >> p.pageShift
	for pg := first; pg < first+uint64(SliceSize)>>p.pageShift; pg++ {
		if p.caches[n].Invalidate(pg) {
			p.pageDir.Evict(coherence.NodeID(n), int64(pg<<p.pageShift))
		}
	}
}

// purgeSlicePagesLocked discards every node's cached pages of slice s
// and any pending buffered writes into it. Called under the slice's
// stripe lock when the logical range dies (Release).
func (p *Pool) purgeSlicePagesLocked(s uint64) {
	for n := range p.caches {
		p.dropCachedPagesLocked(addr.ServerID(n), s)
	}
	if p.wc != nil {
		base := uint64(addr.SliceBase(s))
		p.wc.DropRange(base, base+uint64(SliceSize))
	}
}

// FlushWriteCombining applies all buffered writes to backing (and their
// replicas/parity). Reads already observe buffered writes; flushing
// matters before operations that bypass the pool's read path entirely.
// It is a no-op on pools without a write combiner.
func (p *Pool) FlushWriteCombining() error {
	if p.wc == nil {
		return nil
	}
	return p.flushWC()
}

// flushWC drains the combiner and applies the batch as one vectored
// write per issuing node. The flush mutex serializes flushes and orders
// strictly before stripe locks (taken inside vectored); the batch stays
// visible to readers until EndFlush, so there is no window where an
// accepted write is in neither the combiner nor backing. The batch is
// pre-coalesced: abutting buffered writes arrive as single runs, so the
// vectored path sees the fewest, largest segments the buffer allows.
func (p *Pool) flushWC() error {
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	batch := p.wc.BeginFlushCoalesced()
	if len(batch) == 0 {
		return nil
	}
	// A flush is its own root trace: it applies writes buffered by many
	// earlier (possibly untraced) ops, so no single parent owns it. The
	// flush-size histogram is always on — flushes are rare enough that
	// one Observe per flush is free.
	var sp telemetry.Span
	var fsc telemetry.SpanContext
	traced := p.obs != nil
	if traced {
		sp = p.obs.tracer.Begin(telemetry.SpanContext{}, "pool.wc.flush")
		fsc = sp.Context()
	}
	// Regroup the batch by issuer, issuers in order of first appearance,
	// into the scratch flushMu guards: one pass per issuer (there are at
	// most as many as servers) instead of a map of slices per flush.
	vecs := p.flushVecs[:0]
	var firstErr error
	flushed := 0
	for i := range batch {
		from := batch[i].From
		if slices.ContainsFunc(batch[:i], func(e cache.Pending) bool { return e.From == from }) {
			continue // already applied with its issuer's first entry
		}
		start := len(vecs)
		for _, e := range batch[i:] {
			if e.From == from {
				vecs = append(vecs, Vec{Addr: addr.Logical(e.Addr), Data: e.Data})
				flushed += len(e.Data)
			}
		}
		group := vecs[start:]
		if err := p.vectored(nil, fsc, addr.ServerID(from), group, true, true); err != nil {
			// The batch hit a range that died mid-flight (released) or an
			// unrecoverable slice: apply entry by entry so one bad range
			// does not sink its neighbours, dropping writes whose logical
			// range is gone.
			for _, v := range group {
				if err2 := p.flushOneFallback(addr.ServerID(from), v); err2 != nil && firstErr == nil {
					firstErr = err2
				}
			}
		}
	}
	p.flushVecs = vecs[:0]
	p.wc.EndFlush()
	p.cacheFlushes.Inc()
	p.cacheFlushedBytes.Add(uint64(flushed))
	p.wcFlushBytesHist.Observe(float64(flushed))
	if traced {
		p.endChild(&sp, flushed, firstErr)
	}
	return firstErr
}

func (p *Pool) flushOneFallback(from addr.ServerID, v Vec) error {
	err := p.directAccess(nil, telemetry.SpanContext{}, from, v.Addr, v.Data, accessWrite)
	if err == nil || errors.Is(err, addr.ErrUnmapped) {
		return nil
	}
	return err
}

// CacheStats aggregates the per-node cache and write-combiner state.
type CacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Inserts       uint64 `json:"inserts"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	HotPromotions uint64 `json:"hot_promotions"`
	GhostReadmits uint64 `json:"ghost_readmits"`
	Pages         int    `json:"pages"` // resident pages
	PendingWrites int    `json:"pending_writes"`
	PendingBytes  int    `json:"pending_bytes"`
	Flushes       uint64 `json:"flushes"`
	FlushedBytes  uint64 `json:"flushed_bytes"`
	WCWrites      uint64 `json:"wc_writes"`
	Fills         uint64 `json:"fills"`
}

// HitRate reports hits/(hits+misses), or 0 with no lookups.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// CacheStats reports cache traffic totals across all nodes. On a pool
// built without a cache (Config.Cache.Enabled) every field is zero.
func (p *Pool) CacheStats() CacheStats {
	var out CacheStats
	if p.caches == nil {
		return out
	}
	for _, c := range p.caches {
		st := c.Stats()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Inserts += st.Inserts
		out.Evictions += st.Evictions
		out.Invalidations += st.Invalidations
		out.HotPromotions += st.HotPromotions
		out.GhostReadmits += st.GhostReadmits
		out.Pages += st.Pages
	}
	if p.wc != nil {
		out.PendingWrites = p.wc.PendingCount()
		out.PendingBytes = p.wc.PendingBytes()
	}
	out.Flushes = p.cacheFlushes.Value()
	out.FlushedBytes = p.cacheFlushedBytes.Value()
	out.WCWrites = p.cacheWCWrites.Value()
	out.Fills = p.cacheFills.Value()
	// Mirror the fold into gauges so Snapshot dumps include it.
	p.metrics.Gauge("pool.cache.hits").Set(int64(out.Hits))
	p.metrics.Gauge("pool.cache.misses").Set(int64(out.Misses))
	p.metrics.Gauge("pool.cache.resident_pages").Set(int64(out.Pages))
	return out
}

// PageDirectory exposes the page-cache coherence directory (nil without
// a cache); tests assert protocol traffic through it.
func (p *Pool) PageDirectory() *coherence.Directory { return p.pageDir }

// checkCacheLocked audits every resident cached page against the
// authoritative bytes (backing plus buffered-write overlay): a diverging
// copy is a coherence bug, a copy of an unmapped slice is a missed purge.
// It also holds the page directory to exactness: the holders it records
// for a page are exactly the nodes caching it, and it tracks no page
// nobody caches. Caller holds p.mu and must be quiesced with respect to
// the data path (the chaos harness's between-ops oracle position), since
// the audit takes no stripe locks.
func (p *Pool) checkCacheLocked(report func(string, ...any)) {
	type snap struct {
		page uint64
		data []byte
	}
	scratch := make([]byte, p.pageSize)
	cachedBy := map[uint64][]coherence.NodeID{}
	for n, c := range p.caches {
		var pages []snap
		c.Each(func(page uint64, data []byte) {
			pages = append(pages, snap{page, append([]byte(nil), data...)})
		})
		for _, e := range pages {
			cachedBy[e.page] = append(cachedBy[e.page], coherence.NodeID(n))
			pageAddr := e.page << p.pageShift
			s := addr.SliceOf(addr.Logical(pageAddr))
			back := p.lookupSlice(s)
			if back == nil {
				report("server %d caches page %d of unmapped slice %d", n, e.page, s)
				continue
			}
			if back.server == addr.ServerID(n) {
				report("server %d caches page %d of its own local slice %d", n, e.page, s)
			}
			if p.isDead(back.server) {
				continue // backing unreadable until recovery rebinds it
			}
			off := back.offset + int64(pageAddr-uint64(addr.SliceBase(s)))
			if err := p.nodes[back.server].ReadAt(scratch, off); err != nil {
				report("server %d cached page %d: backing read failed: %v", n, e.page, err)
				continue
			}
			if p.wc != nil {
				p.wc.OverlayRange(pageAddr, scratch)
			}
			if !bytes.Equal(scratch, e.data) {
				report("server %d cached page %d diverges from authoritative bytes (slice %d)", n, e.page, s)
			}
		}
	}
	for page, nodes := range cachedBy {
		_, holders := p.pageDir.StateOf(int64(page << p.pageShift))
		slices.Sort(holders)
		if !slices.Equal(holders, nodes) { // nodes is ascending: p.caches order
			report("page %d is cached by servers %v, registered to %v", page, nodes, holders)
		}
	}
	if tracked := p.pageDir.TrackedBlocks(); tracked != len(cachedBy) {
		report("page directory tracks %d pages, %d are cached", tracked, len(cachedBy))
	}
}
