// Package cache implements the node-local hot-page cache and the
// write-combining buffer behind the pool's WithLocalCache option (the
// paper's §5 "locality balancing" challenge: a logical pool only wins if
// hot data is served from local DRAM and the fabric is reserved for cold
// traffic).
//
// The cache is a sharded, CLOCK-Pro-flavoured page cache: each shard owns
// a clock ring of resident pages split into hot and cold populations plus
// a bounded ghost list of recently evicted page numbers. A cold page
// re-referenced while resident — or re-admitted while still on the ghost
// list — is promoted to hot; hot pages get a second chance (demotion to
// cold) before eviction. This approximates CLOCK-Pro's reuse-distance test
// without its full three-hand machinery, which is enough to keep a
// Zipf-skewed hot set resident under scan pressure.
//
// Locking: one mutex per shard, embedded in cacheShard so lmplint's
// lockorder analyzer recognises the type (name contains "shard") and can
// enforce that a shard lock is never held across an RPC call. The cache
// never calls out of the package while holding a shard lock — in
// particular it never calls the coherence directory, whose callbacks call
// back into the cache (a directory call under a shard lock would deadlock
// with OnBackInvalidate). Instead Put reports the page it evicted, and the
// caller hands that to the directory after the shard lock is released;
// Contains lets the directory re-check, under its own lock, that the
// evicted page has not been re-filled meanwhile.
//
// Coherence is the caller's job: the pool registers every fill with the
// coherence directory and invalidates cached copies on remote writes, so
// entries here are always clean — Invalidate and InvalidateAll discard
// bytes, never write back.
package cache

import (
	"fmt"
	"sync"

	"github.com/lmp-project/lmp/internal/hashtab"
)

// DefaultPageSize is the cache page size when Config.PageSize is zero. It
// matches the memory node's page granularity.
const DefaultPageSize = 4096

// DefaultShards is the shard count when Config.Shards is zero.
const DefaultShards = 16

// Config sizes a node-local cache.
type Config struct {
	// CapacityBytes bounds resident page bytes (rounded down to whole
	// pages per shard). Zero means no cache.
	CapacityBytes int64
	// PageSize is the cache page size in bytes; a power of two.
	PageSize int64
	// Shards is the number of independently locked shards; rounded down
	// to a power of two and capped so every shard holds at least one page.
	Shards int
}

// Stats is a point-in-time view of a cache's traffic counters.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Inserts       uint64
	Evictions     uint64
	Invalidations uint64
	HotPromotions uint64
	GhostReadmits uint64
	Pages         int // resident pages
}

// HitRate reports hits/(hits+misses), or 0 with no lookups.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// entry is one slot of a shard's clock ring. hits counts lookups since
// the last DrainHits so the pool can feed cache locality into the
// migration profile: a hit reaches no backing and so none of the pool's
// own counters.
type entry struct {
	page uint64
	data []byte // page bytes; allocated on the slot's first use, then reused
	hits uint32
	ref  bool
	hot  bool
	// chance marks a freshly demoted page: it survives one more clock
	// pass unreferenced before eviction, so a hot page is not evictable
	// the instant it demotes (CLOCK-Pro's cold test period).
	chance bool
	live   bool
	next   int32 // free-list link while the slot is invalidated
}

// cacheShard is one lock's worth of the cache. The embedded Mutex is the
// shard lock lmplint's lockorder analyzer tracks; the padding keeps
// neighbouring shard locks off the same cache line.
//
// A shard costs what it holds: New allocates none of its storage. The
// resident-page index, the clock ring, the ghost list and the page bytes
// behind a ring slot all grow with use, stop at the size cap pages need,
// and are recycled in place from then on. The index is an open-addressed
// table (hashtab.Table) rather than a Go map — one multiplicative hash
// and, at ≤50% load, almost always one probe, the single hottest
// operation in a cache-enabled pool — and it deletes by backward shift,
// so there are no tombstones to walk and no rebuilds.
//
// The traffic counters are plain fields bumped under the shard lock the
// path already holds, and Stats reads each shard's under its lock, so a
// snapshot never goes backwards.
type cacheShard struct {
	sync.Mutex
	_ [48]byte

	index  hashtab.Table // resident page → its slot in ring
	ring   []entry       // clock ring; one slot per page ever resident at once, up to cap
	hand   int
	free   int32 // invalidated slots awaiting reuse, newest first; -1 when none
	cap    int   // max resident pages
	hot    int   // resident hot pages
	hotCap int
	// ghost remembers the last cap evicted page numbers, oldest first. A
	// page is never resident and on the ghost list at once: it joins when
	// it is evicted and Put takes it off when it comes back.
	ghost hashtab.List[struct{}]

	// foldedHits accumulates the hit counts of entries as they are
	// drained or retired; Stats adds the live entries' counts on top, so
	// the hit path bumps only the entry it already holds.
	foldedHits    uint64
	misses        uint64
	inserts       uint64
	evictions     uint64
	invalidations uint64
	promotions    uint64
	readmits      uint64
}

// lookupLocked finds the live entry for page, or nil.
func (sh *cacheShard) lookupLocked(page uint64) *entry {
	if i, ok := sh.index.Get(page); ok {
		return &sh.ring[i]
	}
	return nil
}

// Cache is a node-local page cache. Safe for concurrent use.
type Cache struct {
	pageSize int64
	shift    uint
	mask     uint64
	shards   []cacheShard
}

// New builds a cache from cfg. A zero or too-small capacity yields a
// cache that never admits pages but stays safe to call.
func New(cfg Config) (*Cache, error) {
	if cfg.PageSize == 0 {
		cfg.PageSize = DefaultPageSize
	}
	if cfg.PageSize <= 0 || cfg.PageSize&(cfg.PageSize-1) != 0 {
		return nil, fmt.Errorf("cache: page size %d must be a positive power of two", cfg.PageSize)
	}
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	totalPages := int(cfg.CapacityBytes / cfg.PageSize)
	// Every shard must hold at least one page, and the shard count must
	// be a power of two so page→shard is a mask.
	shards := 1
	for shards*2 <= cfg.Shards && shards*2 <= max(totalPages, 1) {
		shards *= 2
	}
	perShard := totalPages / shards
	c := &Cache{
		pageSize: cfg.PageSize,
		mask:     uint64(shards - 1),
		shards:   make([]cacheShard, shards),
	}
	for ps := cfg.PageSize; ps > 1; ps >>= 1 {
		c.shift++
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.cap = perShard
		sh.hotCap = perShard * 3 / 4
		if sh.hotCap < 1 {
			sh.hotCap = 1
		}
		sh.free = -1
		sh.ghost.Init(perShard)
	}
	return c, nil
}

// PageSize reports the cache's page size.
func (c *Cache) PageSize() int64 { return c.pageSize }

func (c *Cache) shardFor(page uint64) *cacheShard { return &c.shards[page&c.mask] }

// ReadAt copies len(dst) bytes at byte offset off of the cached page into
// dst. It reports whether the page was resident. A miss records no state
// beyond the miss counter; fills are the caller's job (Put).
//
//lmp:hotpath
func (c *Cache) ReadAt(page uint64, dst []byte, off int) bool {
	sh := c.shardFor(page)
	sh.Lock()
	e := sh.lookupLocked(page)
	if e == nil {
		sh.misses++
		sh.Unlock()
		return false
	}
	copy(dst, e.data[off:off+len(dst)])
	e.ref = true
	if e.hits != ^uint32(0) {
		e.hits++
	}
	sh.Unlock()
	return true
}

// WriteAt updates a resident page in place (coherent write-through by a
// node that already owns the page) and reports whether the page was
// resident. It never admits a page: admission policy lives in Put.
//
//lmp:hotpath
func (c *Cache) WriteAt(page uint64, src []byte, off int) bool {
	sh := c.shardFor(page)
	sh.Lock()
	e := sh.lookupLocked(page)
	if e == nil {
		sh.Unlock()
		return false
	}
	copy(e.data[off:], src)
	e.ref = true
	sh.Unlock()
	return true
}

// Put admits a full page of clean bytes (len(data) must equal PageSize),
// copying them. If the page is already resident its bytes are replaced.
// A page coming back while still on the ghost list is admitted hot
// (CLOCK-Pro's re-admission test: its reuse distance beat the cold
// population).
//
// Put reports the page the call left non-resident, if any: the one
// evicted to make room — or, in a cache with no capacity, page itself —
// so the caller can tell the coherence directory the copy is gone.
//
//lmp:hotpath
func (c *Cache) Put(page uint64, data []byte) (victim uint64, evicted bool) {
	sh := c.shardFor(page)
	sh.Lock()
	if e := sh.lookupLocked(page); e != nil {
		copy(e.data, data)
		e.ref = true
		sh.Unlock()
		return 0, false
	}
	i, evicted := sh.slotLocked()
	if i < 0 {
		sh.Unlock()
		return page, true // capacity zero
	}
	e := &sh.ring[i]
	victim = e.page
	e.page = page
	e.ref = false
	e.chance = false
	e.hits = 0
	e.live = true
	e.hot = false
	if g, ok := sh.ghost.Get(page); ok {
		sh.ghost.Remove(g)
		e.hot = true
		sh.hot++
		sh.readmits++
		sh.demoteOverflowLocked()
	}
	if e.data == nil {
		e.data = c.newPage()
	}
	copy(e.data, data)
	sh.index.Insert(page, i)
	sh.inserts++
	if evicted {
		sh.evictions++
	}
	sh.Unlock()
	return victim, evicted
}

// Contains reports whether page is resident. It is not a lookup: it
// neither references the page nor counts a hit or a miss.
func (c *Cache) Contains(page uint64) bool {
	sh := c.shardFor(page)
	sh.Lock()
	_, ok := sh.index.Get(page)
	sh.Unlock()
	return ok
}

// newPage allocates the bytes behind a ring slot, once, on the slot's
// first use: a cache that is never filled never pays for its capacity.
//
//lmp:coldpath
func (c *Cache) newPage() []byte { return make([]byte, c.pageSize) }

// slotLocked returns a free ring slot (-1 with zero capacity): an
// invalidated one, else the next never-used one, else the clock's
// victim. The second result reports whether a resident page was evicted
// to make room.
func (sh *cacheShard) slotLocked() (int32, bool) {
	if sh.cap == 0 {
		return -1, false
	}
	if i := sh.free; i >= 0 {
		sh.free = sh.ring[i].next
		return i, false
	}
	if n := len(sh.ring); n < sh.cap {
		if n == cap(sh.ring) {
			sh.growRing()
		}
		sh.ring = sh.ring[:n+1]
		return int32(n), false
	}
	return sh.evictLocked(), true
}

// growRing makes room for one more ring slot: it doubles the ring's
// array, but never past the shard's capacity, which the ring then fills
// exactly.
//
//lmp:coldpath
func (sh *cacheShard) growRing() {
	ring := make([]entry, len(sh.ring), min(max(2*cap(sh.ring), 8), sh.cap))
	copy(ring, sh.ring)
	sh.ring = ring
}

// evictLocked runs the clock until a cold, unreferenced page past its
// test period surrenders its slot. Hot pages demote to cold (with one
// chance pass) on their second sweep; cold pages referenced while
// resident promote to hot (the resident reuse test). Terminates: each
// sweep strictly consumes ref, hot, or chance state, so by the fourth
// sweep an evictable page must exist.
func (sh *cacheShard) evictLocked() int32 {
	for i := 0; i < 4*len(sh.ring)+1; i++ {
		at := sh.hand
		e := &sh.ring[at]
		sh.hand = (sh.hand + 1) % len(sh.ring)
		if !e.live {
			continue // free-listed slot; skip, reuse happens via free
		}
		if e.hot {
			if e.ref {
				e.ref = false
			} else {
				e.hot = false
				sh.hot--
				e.chance = true
			}
			continue
		}
		if e.ref {
			e.ref = false
			e.chance = false
			if sh.hot < sh.hotCap {
				e.hot = true
				sh.hot++
				sh.promotions++
			}
			continue
		}
		if e.chance {
			e.chance = false
			continue
		}
		sh.retireLocked(int32(at))
		return int32(at)
	}
	// Unreachable by the termination argument; fail safe by refusing.
	return -1
}

// retireLocked evicts the live entry in ring slot i and remembers its
// page on the ghost list, forgetting the oldest ghost when the list is
// full.
func (sh *cacheShard) retireLocked(i int32) {
	e := &sh.ring[i]
	sh.index.Delete(e.page)
	sh.unlistLocked(e)
	if sh.ghost.Len() >= sh.cap {
		sh.ghost.Remove(sh.ghost.Oldest())
	}
	sh.ghost.Push(e.page)
}

// unlistLocked finishes making an entry just taken out of the index
// non-resident: out of the hot population, and its undrained hit count
// folded into the shard's total so Stats stays exact (the migration
// signal for those hits is lost, as any eviction loses recency).
func (sh *cacheShard) unlistLocked(e *entry) {
	if e.hot {
		e.hot = false
		sh.hot--
	}
	sh.foldedHits += uint64(e.hits)
	e.hits = 0
	e.live = false
}

// freeLocked puts the no longer live ring slot i, page buffer and all,
// on the free list.
func (sh *cacheShard) freeLocked(i int32) {
	sh.ring[i].next = sh.free
	sh.free = i
}

// demoteOverflowLocked demotes hot pages back to cold when ghost
// re-admissions push the hot population over its cap. The first sweep may
// only clear ref bits; the second then demotes, so two sweeps per excess
// hot page bound the loop.
func (sh *cacheShard) demoteOverflowLocked() {
	for sh.hot > sh.hotCap {
		for i := 0; i < 2*len(sh.ring) && sh.hot > sh.hotCap; i++ {
			e := &sh.ring[sh.hand]
			sh.hand = (sh.hand + 1) % len(sh.ring)
			if !e.live || !e.hot {
				continue
			}
			if e.ref {
				e.ref = false
			} else {
				e.hot = false
				sh.hot--
				e.chance = true
			}
		}
	}
}

// Invalidate discards the cached copy of page, reporting whether one was
// resident. The copy is clean by construction, so nothing is written
// back. The slot (and its page buffer) goes on the shard's free list.
//
//lmp:hotpath
func (c *Cache) Invalidate(page uint64) bool {
	sh := c.shardFor(page)
	sh.Lock()
	i, ok := sh.index.Delete(page)
	if !ok {
		sh.Unlock()
		return false
	}
	sh.unlistLocked(&sh.ring[i])
	sh.freeLocked(i)
	sh.invalidations++
	sh.Unlock()
	return true
}

// InvalidateAll discards every resident page (crash-stop purge: no
// writeback, mirrors coherence.Directory.DropNode semantics).
func (c *Cache) InvalidateAll() int {
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.Lock()
		n := sh.index.Len()
		for j := range sh.ring {
			if e := &sh.ring[j]; e.live {
				sh.unlistLocked(e)
				sh.freeLocked(int32(j))
			}
		}
		sh.index.Clear()
		// Forget eviction history too: after a crash the node's access
		// recency is meaningless.
		sh.ghost.Clear()
		sh.invalidations += uint64(n)
		sh.Unlock()
		total += n
	}
	return total
}

// DrainHits visits every resident page with a nonzero lookup count since
// the last drain and resets the counts. The pool folds these into its
// per-slice access profile so cache locality still drives promotion.
// visit runs under the shard lock: it must be quick and must not call
// back into the cache.
func (c *Cache) DrainHits(visit func(page uint64, hits uint64)) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.Lock()
		for j := range sh.ring {
			if e := &sh.ring[j]; e.live && e.hits > 0 {
				visit(e.page, uint64(e.hits))
				sh.foldedHits += uint64(e.hits)
				e.hits = 0
			}
		}
		sh.Unlock()
	}
}

// Each visits every resident page in shard-then-ring order. The data
// slice is the live cache buffer: visit must not retain or mutate it and
// must not call back into the cache (it runs under the shard lock).
func (c *Cache) Each(visit func(page uint64, data []byte)) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.Lock()
		for j := range sh.ring {
			if e := &sh.ring[j]; e.live {
				visit(e.page, e.data)
			}
		}
		sh.Unlock()
	}
}

// Len reports the number of resident pages.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.Lock()
		n += sh.index.Len()
		sh.Unlock()
	}
	return n
}

// Stats sums the shards' traffic counters, each shard's read under its
// lock. A shard's hits are its folded accumulator plus its live entries'
// undrained counts, so the total is exact without the hit path ever
// touching a shared counter, and no counter of a later snapshot is below
// an earlier one's.
func (c *Cache) Stats() Stats {
	var s Stats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.Lock()
		s.Hits += sh.foldedHits
		for j := range sh.ring {
			if e := &sh.ring[j]; e.live {
				s.Hits += uint64(e.hits)
			}
		}
		s.Misses += sh.misses
		s.Inserts += sh.inserts
		s.Evictions += sh.evictions
		s.Invalidations += sh.invalidations
		s.HotPromotions += sh.promotions
		s.GhostReadmits += sh.readmits
		s.Pages += sh.index.Len()
		sh.Unlock()
	}
	return s
}
