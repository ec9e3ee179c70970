// Write combining: small remote writes are buffered locally and flushed
// as one vectored write through the pool's WriteV machinery, trading one
// fabric round-trip per write for one per flush. Correctness rests on two
// rules enforced here and in the pool:
//
//  1. Buffered bytes stay visible. A read overlays pending (and
//     in-flight) writes on top of backing bytes (Overlay*), so a node
//     never observes the pool "losing" a write it already accepted.
//  2. Vecs stay disjoint. Add refuses a write that partially overlaps an
//     existing buffered write (the caller flushes first and retries), so
//     the flush's vectored write has no intra-batch ordering hazard. The
//     one exception is a write fully contained in an earlier buffered
//     write from the same node: that merges in place, which preserves
//     order by construction and is the common rewrite-hot-key case.
//
// Flush is two-phase: BeginFlush moves pending entries to the flushing
// list — still visible to Overlay — the caller applies them via WriteV
// without holding the combiner lock, then EndFlush retires them. A write
// is therefore always in exactly one of {pending, flushing, backing} and
// readers compose all three.
package cache

import (
	"sync"
	"sync/atomic"

	"github.com/lmp-project/lmp/internal/hashtab"
)

// Pending is one buffered write as a flush sees it: a view handed out by
// BeginFlush/BeginFlushCoalesced whose Data aliases the combiner's own
// storage and is valid until the matching EndFlush.
type Pending struct {
	From int    // accessor node that issued the write
	Addr uint64 // logical byte address
	Data []byte
}

// wcEntry is one buffered write. Entries live in the combiner's slab and
// are chained through next: in arrival order on the pending or the
// flushing list, or on the free list once retired.
type wcEntry struct {
	from     int
	addr     uint64
	data     []byte // a private window of the entry's generation arena
	flushing bool
	next     int32
}

// wcLink records that entry ent touches one page. A page's links form a
// chain; the page index points at its first link.
type wcLink struct {
	ent, next int32
}

// entryList is a FIFO of slab entries chained through wcEntry.next.
type entryList struct {
	head, tail int32 // -1 when empty
	n          int
}

// WriteCombiner coalesces small writes. Safe for concurrent use; all
// state is guarded by mu. It holds no locks while callers flush.
//
// Nothing here is allocated per write: entries come from a slab with a
// free list, their bytes from one of two arenas — one per generation,
// the pending one being filled and the flushing one being applied —
// that are rewound, capacity kept, when their generation retires, and
// the page index is a hashtab.Table over per-page chains of links that
// come from a second slab. All of it grows to the high-water mark of one
// flush cycle (at most maxCount entries plus one batch) and stays there.
type WriteCombiner struct {
	pageSize int64
	shift    uint
	maxBytes int // pending-byte flush threshold
	maxCount int // pending-entry flush threshold

	// live counts pending plus flushing entries so the hot read path can
	// skip the overlay (and mu) entirely while nothing is buffered — the
	// overwhelmingly common case. Writers bump it under mu; readers that
	// observe zero are ordered after the relevant Add by the stripe lock
	// both sides hold for the range in question.
	live atomic.Int64

	mu       sync.Mutex
	ents     []wcEntry
	free     int32 // retired slab entries, -1 when none
	links    []wcLink
	freeLink int32         // retired links, -1 when none
	pages    hashtab.Table // page → first link of the entries (pending or flushing) touching it
	pending  entryList
	flushing entryList
	bytes    int // pending bytes
	// arenas back wcEntry.data: gen indexes the one pending writes are
	// copied into; the other holds the flushing batch's bytes (or nothing)
	// and is rewound by EndFlush.
	arenas [2][]byte
	gen    int

	// Flush-side scratch, rebuilt by every BeginFlush* and valid until
	// EndFlush. Flushes are serialised by the caller (the pool's flush
	// mutex), so one set is enough.
	out   []Pending
	merge []byte // backs the Data of coalesced runs
}

// arenaChunk is the arenas' initial capacity.
const arenaChunk = 64 << 10

// NewWriteCombiner returns a combiner for pages of pageSize bytes that
// asks for a flush past maxBytes buffered bytes or maxCount buffered
// writes (zero means a default).
func NewWriteCombiner(pageSize int64, maxBytes, maxCount int) *WriteCombiner {
	if maxBytes <= 0 {
		maxBytes = 128 << 10
	}
	if maxCount <= 0 {
		maxCount = 128
	}
	w := &WriteCombiner{
		pageSize: pageSize,
		maxBytes: maxBytes,
		maxCount: maxCount,
		free:     -1,
		freeLink: -1,
		pending:  entryList{head: -1, tail: -1},
		flushing: entryList{head: -1, tail: -1},
	}
	for ps := pageSize; ps > 1; ps >>= 1 {
		w.shift++
	}
	return w
}

func overlaps(aLo, aHi, bLo, bHi uint64) bool { return aLo < bHi && bLo < aHi }

// lastPage is the index of the last page the non-empty range [a, a+n)
// touches; the first is a >> w.shift.
func (w *WriteCombiner) lastPage(a uint64, n int) uint64 { return (a + uint64(n) - 1) >> w.shift }

func (e *wcEntry) end() uint64 { return e.addr + uint64(len(e.data)) }

// arenaCopy copies data into the pending generation's arena and returns
// the copy with a private cap, so later copies cannot alias it.
func (w *WriteCombiner) arenaCopy(data []byte) []byte {
	a := w.arenas[w.gen]
	if cap(a)-len(a) < len(data) {
		a = growArena(a, len(data))
	}
	off := len(a)
	a = a[:off+len(data)]
	w.arenas[w.gen] = a
	buf := a[off:len(a):len(a)]
	copy(buf, data)
	return buf
}

// growArena starts a larger array for a full arena. Entries already
// copied keep the old array alive until their generation retires; the
// arena carries the new one from then on, so a generation's arena stops
// growing once it has held the largest batch.
func growArena(a []byte, need int) []byte {
	return make([]byte, 0, max(arenaChunk, 2*cap(a), 2*need))
}

// newEntry takes an entry off the free list, or the slab's next one.
func (w *WriteCombiner) newEntry() int32 {
	if i := w.free; i >= 0 {
		w.free = w.ents[i].next
		return i
	}
	if len(w.ents) == cap(w.ents) {
		w.growSlabs()
	}
	w.ents = w.ents[:len(w.ents)+1]
	return int32(len(w.ents) - 1)
}

// newLink is newEntry for the link slab.
func (w *WriteCombiner) newLink() int32 {
	if l := w.freeLink; l >= 0 {
		w.freeLink = w.links[l].next
		return l
	}
	if len(w.links) == cap(w.links) {
		w.growSlabs()
	}
	w.links = w.links[:len(w.links)+1]
	return int32(len(w.links) - 1)
}

// growSlabs is the amortised append behind newEntry and newLink: it runs
// until the slabs have held one full flush cycle, then never again.
func (w *WriteCombiner) growSlabs() {
	w.ents = append(w.ents, wcEntry{})[:len(w.ents)]
	w.links = append(w.links, wcLink{})[:len(w.links)]
}

// chain returns the first link of the entries touching page p, -1 when
// none does.
func (w *WriteCombiner) chain(p uint64) int32 {
	if l, ok := w.pages.Get(p); ok {
		return l
	}
	return -1
}

// link adds entry i to page p's chain — behind the first link, so the
// page index only changes when a chain starts or ends.
func (w *WriteCombiner) link(p uint64, i int32) {
	l := w.newLink()
	if head := w.chain(p); head >= 0 {
		w.links[l] = wcLink{ent: i, next: w.links[head].next}
		w.links[head].next = l
		return
	}
	w.links[l] = wcLink{ent: i, next: -1}
	w.pages.Insert(p, l)
}

// unlink takes entry i, which touches page p, off p's chain.
func (w *WriteCombiner) unlink(p uint64, i int32) {
	l := w.chain(p)
	if w.links[l].ent == i {
		// The first link goes: its successor's contents move into it, or
		// the chain ends.
		next := w.links[l].next
		if next < 0 {
			w.pages.Delete(p)
		} else {
			w.links[l] = w.links[next]
			l = next
		}
	} else {
		prev := l
		for l = w.links[l].next; w.links[l].ent != i; l = w.links[l].next {
			prev = l
		}
		w.links[prev].next = w.links[l].next
	}
	w.links[l].next = w.freeLink
	w.freeLink = l
}

func (w *WriteCombiner) pushBack(l *entryList, i int32) {
	w.ents[i].next = -1
	if l.tail >= 0 {
		w.ents[l.tail].next = i
	} else {
		l.head = i
	}
	l.tail = i
	l.n++
}

// retire unindexes entry i, which is already off its list, and frees it.
func (w *WriteCombiner) retire(i int32) {
	e := &w.ents[i]
	for p, last := e.addr>>w.shift, w.lastPage(e.addr, len(e.data)); p <= last; p++ {
		w.unlink(p, i)
	}
	*e = wcEntry{next: w.free}
	w.free = i
}

// Add buffers a write of data at logical address a on behalf of node
// from. ok reports whether the write was absorbed; when false the caller
// must flush and retry (the write partially overlaps a buffered one and
// absorbing it would break vec disjointness). shouldFlush asks the
// caller to flush soon — after releasing any locks ordered before wc.
func (w *WriteCombiner) Add(from int, a uint64, data []byte) (ok, shouldFlush bool) {
	if len(data) == 0 {
		return true, false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	lo, hi := a, a+uint64(len(data))
	first, last := a>>w.shift, w.lastPage(a, len(data))
	// Scan entries indexed under each touched page for overlap.
	cover := int32(-1)
	for p := first; p <= last; p++ {
		for l := w.chain(p); l >= 0; l = w.links[l].next {
			e := &w.ents[w.links[l].ent]
			if !overlaps(lo, hi, e.addr, e.end()) {
				continue
			}
			if e.from == from && e.addr <= lo && hi <= e.end() && !e.flushing {
				// Fully covered by our own earlier pending write: merge.
				cover = w.links[l].ent
				continue
			}
			return false, true
		}
	}
	if cover >= 0 {
		e := &w.ents[cover]
		copy(e.data[lo-e.addr:], data)
		return true, w.bytes > w.maxBytes || w.pending.n >= w.maxCount
	}
	i := w.newEntry()
	w.ents[i] = wcEntry{from: from, addr: a, data: w.arenaCopy(data)}
	w.pushBack(&w.pending, i)
	w.live.Add(1)
	w.bytes += len(data)
	for p := first; p <= last; p++ {
		w.link(p, i)
	}
	return true, w.bytes > w.maxBytes || w.pending.n >= w.maxCount
}

// PendingInRange reports whether any buffered write (pending or
// in-flight) intersects [a, a+n). Callers about to bypass the combiner
// with a direct write use this to decide whether to flush first.
func (w *WriteCombiner) PendingInRange(a uint64, n int) bool {
	if n <= 0 || w.live.Load() == 0 {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for p, last := a>>w.shift, w.lastPage(a, n); p <= last; p++ {
		for l := w.chain(p); l >= 0; l = w.links[l].next {
			if e := &w.ents[w.links[l].ent]; overlaps(a, a+uint64(n), e.addr, e.end()) {
				return true
			}
		}
	}
	return false
}

// OverlayRange composes every buffered write intersecting [a, a+len(buf))
// onto buf (which holds backing bytes for that range), so buf ends up
// with the authoritative view: backing, then in-flight flushes, then
// pending writes. Buffered writes are pairwise disjoint (Add's rule 2),
// so the order they are applied in does not matter, and an entry met
// again under a second page just copies the same bytes twice.
func (w *WriteCombiner) OverlayRange(a uint64, buf []byte) {
	if len(buf) == 0 || w.live.Load() == 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	lo, hi := a, a+uint64(len(buf))
	for p, last := a>>w.shift, w.lastPage(a, len(buf)); p <= last; p++ {
		for l := w.chain(p); l >= 0; l = w.links[l].next {
			e := &w.ents[w.links[l].ent]
			if cLo, cHi := max(lo, e.addr), min(hi, e.end()); cLo < cHi {
				copy(buf[cLo-lo:cHi-lo], e.data[cLo-e.addr:cHi-e.addr])
			}
		}
	}
}

// BeginFlush moves all pending writes to the flushing list and returns
// the full flushing batch in arrival order. Entries remain visible to
// Overlay/PendingInRange until EndFlush. The caller must serialize
// flushes (the pool holds its flush mutex across Begin/EndFlush): the
// returned views share one scratch the next BeginFlush* overwrites.
func (w *WriteCombiner) BeginFlush() []Pending { return w.beginFlush(false) }

// BeginFlushCoalesced is BeginFlush plus run coalescing: consecutive
// batch entries from the same issuer whose byte ranges abut are merged
// into one entry, so the flush applies fewer, larger vectored runs (and
// the live transport packs fewer, larger frames). Batch entries are
// disjoint by the Add contract, so abutting merges are order-free and
// byte-exact. A merged run's Data lives in the combiner's merge buffer,
// an unmerged one's in the arena; the originals stay on the flushing
// list for overlay visibility until EndFlush.
func (w *WriteCombiner) BeginFlushCoalesced() []Pending { return w.beginFlush(true) }

func (w *WriteCombiner) beginFlush(coalesce bool) []Pending {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.pending.n > 0 {
		if w.flushing.n == 0 {
			// The other arena holds nothing live (EndFlush rewound it):
			// new writes fill it while this generation's bytes are applied.
			w.gen ^= 1
			w.flushing = w.pending
		} else {
			// Begin without End: the batch grows, and pending writes keep
			// their arena until a flush starts from an empty flushing list.
			w.ents[w.flushing.tail].next = w.pending.head
			w.flushing.tail = w.pending.tail
			w.flushing.n += w.pending.n
		}
		for i := w.pending.head; i >= 0; i = w.ents[i].next {
			w.ents[i].flushing = true
		}
		w.pending = entryList{head: -1, tail: -1}
		w.bytes = 0
	}
	// Both scratches grow by append and are kept, so they stop growing at
	// the largest batch. Should merge move to a larger array mid-batch,
	// the runs already handed out keep the old one alive and intact.
	w.merge = w.merge[:0]
	w.out = w.out[:0]
	run := -1 // start of the last view's bytes in merge; -1 while it still aliases the arena
	for i := w.flushing.head; i >= 0; i = w.ents[i].next {
		e := &w.ents[i]
		if n := len(w.out); coalesce && n > 0 {
			prev := &w.out[n-1]
			if prev.From == e.from && prev.Addr+uint64(len(prev.Data)) == e.addr {
				if run < 0 {
					// First extension: copy out of the arena — extending in
					// place would run into the neighbouring entry's bytes.
					run = len(w.merge)
					w.merge = append(w.merge, prev.Data...)
				}
				w.merge = append(w.merge, e.data...)
				prev.Data = w.merge[run:len(w.merge):len(w.merge)]
				continue
			}
		}
		w.out = append(w.out, Pending{From: e.from, Addr: e.addr, Data: e.data})
		run = -1
	}
	return w.out
}

// EndFlush retires the flushing batch: the writes are now in backing.
func (w *WriteCombiner) EndFlush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.live.Add(-int64(w.flushing.n))
	for i := w.flushing.head; i >= 0; {
		next := w.ents[i].next
		w.retire(i)
		i = next
	}
	w.flushing = entryList{head: -1, tail: -1}
	// Pending writes live in arenas[gen] only, so the other arena is all
	// retired bytes now.
	w.arenas[w.gen^1] = w.arenas[w.gen^1][:0]
}

// DropRange discards pending writes fully contained in [lo, hi) — the
// release path, where the logical range itself is going away. In-flight
// flushing entries are left alone; the flush's fallback path drops them
// when the backing store reports the range unmapped.
func (w *WriteCombiner) DropRange(lo, hi uint64) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	dropped := 0
	kept := entryList{head: -1, tail: -1}
	for i := w.pending.head; i >= 0; {
		e := &w.ents[i]
		next := e.next
		if e.addr >= lo && e.end() <= hi {
			dropped++
			w.live.Add(-1)
			w.bytes -= len(e.data)
			w.retire(i)
		} else {
			w.pushBack(&kept, i)
		}
		i = next
	}
	w.pending = kept
	return dropped
}

// PendingCount reports buffered (not yet flushing) write count.
func (w *WriteCombiner) PendingCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pending.n
}

// PendingBytes reports buffered (not yet flushing) write bytes.
func (w *WriteCombiner) PendingBytes() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes
}
