// Package memnode implements a single server's memory for the LMP runtime:
// a sparse, page-granular byte store covering the server's DRAM, split into
// a private region and a shared region whose boundary can move at runtime
// (the paper's ratio flexibility), plus per-page access statistics feeding
// the migration and sizing policies.
//
// Pages are materialized on first write, so a node can model tens of
// gigabytes of capacity while tests touch only megabytes.
//
// The data path is lock-free: pages live in a two-level structure of
// atomically published chunks (one chunk covers 2MiB of address space),
// materialized with compare-and-swap, and statistics are per-page atomics.
// Many goroutines — one per accessing server, as in the paper's §4
// workloads — can therefore drive one node concurrently without
// serializing on a node-wide mutex. Concurrent writes to the same byte
// range are the application's data race, exactly as on real shared
// memory; the node itself stays structurally consistent.
package memnode

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
)

// PageSize is the translation and tracking granularity, 4KiB as in the
// host page tables the paper's runtime would manage.
const PageSize = 4096

// chunkPages is the number of pages per atomically published chunk; one
// chunk spans 2MiB, matching the pool's slice granularity.
const chunkPages = 512

// chunkBytes is the address span of one chunk.
const chunkBytes = int64(chunkPages) * PageSize

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

// chunk holds the pages and statistics for one 2MiB span. Page slots are
// published with atomic pointers so readers never take a lock; a nil page
// reads as zeros.
type chunk struct {
	pages [chunkPages]atomic.Pointer[[PageSize]byte]
	stats [chunkPages]atomic.Pointer[pageStats]
}

// Node is one server's DRAM. It is safe for concurrent use, and the
// read/write/record path is lock-free.
type Node struct {
	name     string
	capacity int64

	// chunks is sized at construction (capacity/chunkBytes slots); each
	// slot is materialized on first touch.
	chunks []atomic.Pointer[chunk]

	shared atomic.Int64 // bytes [0, shared) are the shared region
}

// New returns a node with the given capacity and initial shared-region
// size. sharedBytes must be in [0, capacity].
func New(name string, capacity, sharedBytes int64) (*Node, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("memnode: capacity %d must be positive", capacity)
	}
	if sharedBytes < 0 || sharedBytes > capacity {
		return nil, fmt.Errorf("memnode: shared %d outside [0,%d]", sharedBytes, capacity)
	}
	n := &Node{
		name:     name,
		capacity: capacity,
		chunks:   make([]atomic.Pointer[chunk], (capacity+chunkBytes-1)/chunkBytes),
	}
	n.shared.Store(sharedBytes)
	return n, nil
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Capacity reports total DRAM bytes.
func (n *Node) Capacity() int64 { return n.capacity }

// SharedBytes reports the current shared-region size.
func (n *Node) SharedBytes() int64 { return n.shared.Load() }

// PrivateBytes reports capacity outside the shared region.
func (n *Node) PrivateBytes() int64 { return n.capacity - n.SharedBytes() }

// Resize moves the private/shared boundary anywhere in [0, capacity].
// What is allocated inside the region is the allocator's business: the
// caller shrinks its allocator first, which refuses to drop below use.
func (n *Node) Resize(sharedBytes int64) error {
	if sharedBytes < 0 || sharedBytes > n.capacity {
		return fmt.Errorf("memnode: resize to %d outside [0,%d]", sharedBytes, n.capacity)
	}
	n.shared.Store(sharedBytes)
	return nil
}

// checkRange bounds an access by the node's capacity without adding off
// and length: an offset near MaxInt64 (one that came off the wire) would
// wrap the sum negative and pass.
func (n *Node) checkRange(off int64, length int) error {
	if off < 0 || length < 0 || int64(length) > n.capacity-off {
		return fmt.Errorf("%w: %d bytes at %d of %d", ErrOutOfRange, length, off, n.capacity)
	}
	return nil
}

// loadChunk returns the chunk covering page, or nil if untouched.
func (n *Node) loadChunk(page int64) *chunk {
	return n.chunks[page/chunkPages].Load()
}

// ensureChunk returns the chunk covering page, materializing it if needed.
func (n *Node) ensureChunk(page int64) *chunk {
	slot := &n.chunks[page/chunkPages]
	if c := slot.Load(); c != nil {
		return c
	}
	fresh := &chunk{}
	if slot.CompareAndSwap(nil, fresh) {
		return fresh
	}
	return slot.Load()
}

// ReadAt copies len(p) bytes at offset off into p. Unmaterialized pages
// read as zeros. The read is lock-free.
func (n *Node) ReadAt(p []byte, off int64) error {
	if err := n.checkRange(off, len(p)); err != nil {
		return err
	}
	for done := 0; done < len(p); {
		page := (off + int64(done)) / PageSize
		po := int((off + int64(done)) % PageSize)
		span := PageSize - po
		if rem := len(p) - done; rem < span {
			span = rem
		}
		var data *[PageSize]byte
		if c := n.loadChunk(page); c != nil {
			data = c.pages[page%chunkPages].Load()
		}
		if data != nil {
			copy(p[done:done+span], data[po:po+span])
		} else {
			clear(p[done : done+span])
		}
		done += span
	}
	return nil
}

// WriteAt copies p into the node at offset off, materializing pages with
// compare-and-swap. Structural publication is lock-free; concurrent
// writes to overlapping bytes are an application-level race, as on real
// memory.
func (n *Node) WriteAt(p []byte, off int64) error {
	if err := n.checkRange(off, len(p)); err != nil {
		return err
	}
	for done := 0; done < len(p); {
		page := (off + int64(done)) / PageSize
		po := int((off + int64(done)) % PageSize)
		span := PageSize - po
		if rem := len(p) - done; rem < span {
			span = rem
		}
		c := n.ensureChunk(page)
		slot := &c.pages[page%chunkPages]
		data := slot.Load()
		if data == nil {
			fresh := new([PageSize]byte)
			if slot.CompareAndSwap(nil, fresh) {
				data = fresh
			} else {
				data = slot.Load()
			}
		}
		copy(data[po:po+span], p[done:done+span])
		done += span
	}
	return nil
}

// DropPage discards a page's contents and statistics (used after
// migration moves it away).
func (n *Node) DropPage(page int64) {
	if c := n.loadChunk(page); c != nil {
		c.pages[page%chunkPages].Store(nil)
		c.stats[page%chunkPages].Store(nil)
	}
}

// DropRange discards the contents and statistics of every page fully
// contained in [off, off+length) — the bulk form used when a whole slice
// migrates away. Partially covered pages at the edges are kept.
func (n *Node) DropRange(off, length int64) {
	if length <= 0 {
		return
	}
	first := (off + PageSize - 1) / PageSize
	last := (off + length) / PageSize // exclusive
	for p := first; p < last; p++ {
		n.DropPage(p)
	}
}

// MaterializedPages reports how many pages hold data.
func (n *Node) MaterializedPages() int {
	count := 0
	for ci := range n.chunks {
		c := n.chunks[ci].Load()
		if c == nil {
			continue
		}
		for pi := range c.pages {
			if c.pages[pi].Load() != nil {
				count++
			}
		}
	}
	return count
}

// ensureStats returns the stats record for page, materializing it if
// needed.
func (n *Node) ensureStats(page int64) *pageStats {
	c := n.ensureChunk(page)
	slot := &c.stats[page%chunkPages]
	if st := slot.Load(); st != nil {
		return st
	}
	fresh := &pageStats{}
	if slot.CompareAndSwap(nil, fresh) {
		return fresh
	}
	return slot.Load()
}

// RecordAccess updates statistics for the page containing off. remote
// marks the access as issued by another server; write marks stores. The
// update is lock-free.
func (n *Node) RecordAccess(off int64, remote, write bool) {
	st := n.ensureStats(off / PageSize)
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
	if c := n.loadChunk(page); c != nil {
		if st := c.stats[page%chunkPages].Load(); st != nil {
			return st.snapshot(page)
		}
	}
	return PageStats{Page: page}
}

// eachStats visits every materialized stats record.
func (n *Node) eachStats(visit func(page int64, st *pageStats)) {
	for ci := range n.chunks {
		c := n.chunks[ci].Load()
		if c == nil {
			continue
		}
		base := int64(ci) * chunkPages
		for pi := range c.stats {
			if st := c.stats[pi].Load(); st != nil {
				visit(base+int64(pi), st)
			}
		}
	}
}

// HottestPages returns up to k pages by descending heat.
func (n *Node) HottestPages(k int) []PageStats {
	var all []PageStats
	n.eachStats(func(page int64, st *pageStats) {
		all = append(all, st.snapshot(page))
	})
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
