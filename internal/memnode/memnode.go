// Package memnode implements a single server's memory for the LMP runtime:
// a page-granular byte store covering the server's DRAM, split into a
// private region and a shared region whose boundary can move at runtime
// (the paper's ratio flexibility), plus per-page access statistics feeding
// the migration and sizing policies.
//
// A Node is the lender: it owns the extent allocator of its shared region
// (Alloc, Free, Resize), so the rules of lent memory hold by construction
// for every holder — the in-process pool, lmpd, the physical-pool device.
// A freed extent is scrubbed before it can be granted again, the
// private/shared boundary has one owner, and a shrink gives the vacated
// tail back to the host.
//
// The bytes live outside the Go heap, in one anonymous mapping reserved
// per node (backing_linux.go; a plain slice elsewhere). Untouched bytes
// cost address space only, so a node can model tens of gigabytes of
// capacity while tests touch only megabytes; the kernel supplies zeroed
// pages on first touch and takes them back when a range is dropped or
// the shared region shrinks. A runtime cleanup unmaps the memory once the
// Node is unreachable — there is no Close, so no accessor can outlive the
// bytes it copies.
//
// The data path is one bounds check and one copy, with no lock: many
// goroutines — one per accessing server, as in the paper's §4 workloads —
// drive one node concurrently. Concurrent writes to the same byte range
// are the application's data race, exactly as on real shared memory (and,
// the bytes being outside the heap, invisible to the race detector).
// Statistics are per-page atomics in a sparse table of atomically
// published chunks.
package memnode

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/lmp-project/lmp/internal/alloc"
)

// PageSize is the translation and tracking granularity, 4KiB as in the
// host page tables the paper's runtime would manage, and the unit of the
// shared region: its size and every extent granted in it are whole pages.
const PageSize = 4096

// chunkPages is the number of pages whose statistics one atomically
// published chunk holds; one chunk spans 2MiB, matching the pool's slice
// granularity.
const chunkPages = 512

// ErrOutOfRange reports an access beyond the node's capacity.
var ErrOutOfRange = errors.New("memnode: access out of range")

// PageStats holds access statistics for one page.
type PageStats struct {
	Page        int64
	LocalReads  uint64
	RemoteReads uint64
	Writes      uint64
	// Heat is an activity counter, incremented per access. Remote
	// accesses add extra weight because they are the ones migration can
	// eliminate.
	Heat uint64
}

// pageStats is the internal atomic mirror of PageStats.
type pageStats struct {
	localReads  atomic.Uint64
	remoteReads atomic.Uint64
	writes      atomic.Uint64
	heat        atomic.Uint64
}

func (st *pageStats) snapshot(page int64) PageStats {
	return PageStats{
		Page:        page,
		LocalReads:  st.localReads.Load(),
		RemoteReads: st.remoteReads.Load(),
		Writes:      st.writes.Load(),
		Heat:        st.heat.Load(),
	}
}

// statChunk holds the statistics of one 2MiB span, published per page so
// recorders never take a lock.
type statChunk [chunkPages]atomic.Pointer[pageStats]

// Node is one server's DRAM. It is safe for concurrent use, and the
// read/write/record path is lock-free.
type Node struct {
	name     string
	capacity int64

	// mem is the node's memory, len(mem) == capacity, backed outside the
	// Go heap (see backing_*.go). It lives until the Node is collected:
	// every method that touches it keeps n alive until it is done.
	mem []byte

	// stats is sized at construction (one slot per 2MiB); each slot is
	// materialized on the first RecordAccess inside it.
	stats []atomic.Pointer[statChunk]

	// allocMu is the allocation lock: it guards extents and orders the
	// scrub of a freed or vacated range before the range can be granted
	// again. It is a leaf — nothing is acquired under it — and the data
	// path never takes it.
	allocMu sync.Mutex
	extents *alloc.Extents
	// shared mirrors the allocator's limit — bytes [0, shared) are the
	// shared region — for readers that must not queue behind an
	// allocation (lmpd bounds every wire access by it). Written only by
	// Resize, under allocMu.
	shared  atomic.Int64
	dropped atomic.Uint64 // bytes handed back to the host by dropRange
}

// New returns a node with the given capacity and initial shared-region
// size. sharedBytes must be in [0, capacity]; it is rounded down to pages.
func New(name string, capacity, sharedBytes int64) (*Node, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("memnode: capacity %d must be positive", capacity)
	}
	if sharedBytes < 0 || sharedBytes > capacity {
		return nil, fmt.Errorf("memnode: shared %d outside [0,%d]", sharedBytes, capacity)
	}
	sharedBytes -= sharedBytes % PageSize
	extents, err := alloc.NewExtents(sharedBytes, PageSize)
	if err != nil {
		return nil, err
	}
	const chunkBytes = chunkPages * PageSize
	n := &Node{
		name:     name,
		capacity: capacity,
		stats:    make([]atomic.Pointer[statChunk], (capacity+chunkBytes-1)/chunkBytes),
		extents:  extents,
	}
	if err := n.reserve(); err != nil {
		return nil, fmt.Errorf("memnode: reserving %d bytes: %w", capacity, err)
	}
	n.shared.Store(sharedBytes)
	return n, nil
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Capacity reports total DRAM bytes.
func (n *Node) Capacity() int64 { return n.capacity }

// SharedBytes reports the current shared-region size (lock-free).
func (n *Node) SharedBytes() int64 { return n.shared.Load() }

// PrivateBytes reports capacity outside the shared region.
func (n *Node) PrivateBytes() int64 { return n.capacity - n.SharedBytes() }

// InUse reports the bytes of the shared region currently granted.
func (n *Node) InUse() int64 {
	n.allocMu.Lock()
	defer n.allocMu.Unlock()
	return n.extents.InUse()
}

// FreeBytes reports the bytes of the shared region not granted.
func (n *Node) FreeBytes() int64 {
	n.allocMu.Lock()
	defer n.allocMu.Unlock()
	return n.extents.FreeBytes()
}

// DroppedBytes counts the bytes scrubbed and handed back to the host so
// far, by Free and by a shrinking Resize.
func (n *Node) DroppedBytes() uint64 { return n.dropped.Load() }

// Alloc grants size bytes (rounded up to pages) of the shared region and
// returns the extent's offset. The extent reads as zeros. It fails with an
// error wrapping alloc.ErrNoSpace when no free extent is large enough.
func (n *Node) Alloc(size int64) (int64, error) {
	n.allocMu.Lock()
	defer n.allocMu.Unlock()
	return n.extents.Alloc(size)
}

// Free takes back the extent granted at off and reports its length. The
// extent is scrubbed — its pages go back to the host and read as zeros —
// before the allocation lock is released, so no later Alloc can be handed
// the previous tenant's bytes. An offset that is not the start of a live
// extent fails with an error wrapping alloc.ErrNotAllocated and changes
// nothing.
func (n *Node) Free(off int64) (int64, error) {
	n.allocMu.Lock()
	defer n.allocMu.Unlock()
	size, err := n.extents.Free(off)
	if err != nil {
		return 0, err
	}
	n.dropRange(off, size)
	return size, nil
}

// Resize moves the private/shared boundary to sharedBytes, rounded down
// to pages, anywhere in [0, capacity]. A shrink is refused, with an error
// wrapping alloc.ErrNoSpace and nothing changed, unless the tail it
// vacates is entirely free; it then drops that tail, so the memory goes
// back to the host and reads as zeros if the region grows again.
func (n *Node) Resize(sharedBytes int64) error {
	if sharedBytes < 0 || sharedBytes > n.capacity {
		return fmt.Errorf("memnode: resize to %d outside [0,%d]", sharedBytes, n.capacity)
	}
	sharedBytes -= sharedBytes % PageSize
	n.allocMu.Lock()
	defer n.allocMu.Unlock()
	if err := n.extents.SetLimit(sharedBytes); err != nil {
		return err
	}
	// The vacated tail is [new, old); a grow makes that length negative,
	// which dropRange ignores.
	n.dropRange(sharedBytes, n.shared.Swap(sharedBytes)-sharedBytes)
	return nil
}

// inRange bounds an access by the node's capacity without adding off and
// length: an offset near MaxInt64 (one that came off the wire) would wrap
// the sum negative and pass.
func (n *Node) inRange(off int64, length int) bool {
	return off >= 0 && int64(length) <= n.capacity-off
}

//lmp:coldpath
func (n *Node) rangeError(off int64, length int) error {
	return fmt.Errorf("%w: %d bytes at %d of %d", ErrOutOfRange, length, off, n.capacity)
}

// ReadAt copies len(p) bytes at offset off into p. Bytes never written
// read as zeros.
//
//lmp:hotpath
func (n *Node) ReadAt(p []byte, off int64) error {
	if !n.inRange(off, len(p)) {
		return n.rangeError(off, len(p))
	}
	copy(p, n.mem[off:])
	runtime.KeepAlive(n)
	return nil
}

// WriteAt copies p into the node at offset off. Concurrent writes to
// overlapping bytes are an application-level race, as on real memory.
//
//lmp:hotpath
func (n *Node) WriteAt(p []byte, off int64) error {
	if !n.inRange(off, len(p)) {
		return n.rangeError(off, len(p))
	}
	copy(n.mem[off:], p)
	runtime.KeepAlive(n)
	return nil
}

// dropRange discards the contents and statistics of every page fully
// contained in [off, off+length) — an extent being freed, or the tail a
// shrink vacates. The pages go back to the host and read as zeros
// afterwards; partially covered pages at the edges are kept, and whatever
// part of the range lies outside the node is ignored.
func (n *Node) dropRange(off, length int64) {
	// Clamp to [0, capacity) without forming off+length while it can
	// still overflow.
	if off < 0 && length > 0 {
		off, length = 0, length+off // positive plus negative: cannot wrap
	}
	if length <= 0 || off >= n.capacity {
		return
	}
	length = min(length, n.capacity-off)
	first := (off + PageSize - 1) / PageSize
	last := (off + length) / PageSize // exclusive
	if first >= last {
		return
	}
	for p := first; p < last; p++ {
		if c := n.stats[p/chunkPages].Load(); c != nil {
			c[p%chunkPages].Store(nil)
		}
	}
	n.release(first*PageSize, last*PageSize)
	n.dropped.Add(uint64((last - first) * PageSize))
	runtime.KeepAlive(n)
}

// ResidentBytes reports how much of the node's memory the host currently
// backs with real pages, or 0 where the platform cannot tell. It reads
// the kernel's accounting and is meant for a metrics scrape, not a data
// path.
func (n *Node) ResidentBytes() int64 {
	r := n.resident()
	runtime.KeepAlive(n)
	return r
}

// publish returns what slot holds, installing a zero T first if it is
// empty. It never returns nil, even when a drop empties the slot again
// between the install and the load.
func publish[T any](slot *atomic.Pointer[T]) *T {
	for {
		if v := slot.Load(); v != nil {
			return v
		}
		slot.CompareAndSwap(nil, new(T))
	}
}

// RecordAccess updates statistics for the page containing off. remote
// marks the access as issued by another server; write marks stores. The
// update is lock-free.
func (n *Node) RecordAccess(off int64, remote, write bool) {
	page := off / PageSize
	st := publish(&publish(&n.stats[page/chunkPages])[page%chunkPages])
	switch {
	case write:
		st.writes.Add(1)
		st.heat.Add(1)
	case remote:
		st.remoteReads.Add(1)
		// Remote reads are what locality balancing can win back; weight
		// them higher so hot remote pages surface first.
		st.heat.Add(4)
	default:
		st.localReads.Add(1)
		st.heat.Add(1)
	}
}

// Stats returns a copy of the statistics for the page containing off.
func (n *Node) Stats(off int64) PageStats {
	page := off / PageSize
	if c := n.stats[page/chunkPages].Load(); c != nil {
		if st := c[page%chunkPages].Load(); st != nil {
			return st.snapshot(page)
		}
	}
	return PageStats{Page: page}
}

// HottestPages returns up to k pages by descending heat.
func (n *Node) HottestPages(k int) []PageStats {
	var all []PageStats
	for ci := range n.stats {
		if c := n.stats[ci].Load(); c != nil {
			for pi := range c {
				if st := c[pi].Load(); st != nil {
					all = append(all, st.snapshot(int64(ci)*chunkPages+int64(pi)))
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Heat != all[j].Heat {
			return all[i].Heat > all[j].Heat
		}
		return all[i].Page < all[j].Page
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}
