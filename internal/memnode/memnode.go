// Package memnode implements a single server's memory for the LMP runtime:
// a page-granular byte store covering the server's DRAM, split into a
// private region and a shared region whose boundary can move at runtime
// (the paper's ratio flexibility).
//
// A Node is the lender: it owns the extent allocator of its shared region
// (Alloc, Free, Resize), so the rules of lent memory hold by construction
// for every holder — the in-process pool, lmpd, the physical-pool device.
// A freed extent is scrubbed before it can be granted again, the
// private/shared boundary has one owner, and a shrink gives the vacated
// tail back to the host.
//
// The bytes live outside the Go heap, in one anonymous mapping reserved
// per node (backing_linux.go; a plain slice elsewhere). Ungranted bytes
// cost address space only, so a node can model tens of gigabytes of
// capacity while tests touch only megabytes. The kernel supplies zeroed
// pages and takes them back when a range is dropped or the shared region
// shrinks; the whole huge pages of a new extent are faulted in off the
// data path, by a goroutine the grant starts, so a tenant's first write
// finds them resident. A runtime cleanup unmaps the memory once the
// Node is unreachable — there is no Close, so no accessor can outlive the
// bytes it copies. View is the one accessor that hands the bytes out
// rather than copying them: a view is valid only while its holder keeps
// the Node reachable.
//
// The data path is one bounds check and one copy, with no lock: many
// goroutines — one per accessing server, as in the paper's §4 workloads —
// drive one node concurrently. Concurrent writes to the same byte range
// are the application's data race, exactly as on real shared memory (and,
// the bytes being outside the heap, invisible to the race detector).
package memnode

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/lmp-project/lmp/internal/alloc"
)

// PageSize is the translation granularity, 4KiB as in the
// host page tables the paper's runtime would manage, and the unit of the
// shared region: its size and every extent granted in it are whole pages.
const PageSize = 4096

// hugePage is the x86-64/arm64 transparent-huge-page size: the Linux
// backing aligns the mapping to it, Alloc populates in units of it, and
// Free scrubs the free part of the ones its extent overlaps. A wrong
// guess costs two partial huge pages at the mapping's ends and puts
// those two in the wrong unit; nothing breaks.
const hugePage = 2 << 20

// ErrOutOfRange reports an access beyond the node's capacity.
var ErrOutOfRange = errors.New("memnode: access out of range")

// Node is one server's DRAM. It is safe for concurrent use, and the
// read/write path is lock-free.
type Node struct {
	name     string
	capacity int64

	// mem is the node's memory, len(mem) == capacity, backed outside the
	// Go heap (see backing_*.go). It lives until the Node is collected:
	// every method that touches it keeps n alive until it is done.
	mem []byte

	// dropMu orders a Free's drop after the populate in flight: Free
	// holds it from before allocMu until its drop is done, and the
	// populator holds it across one huge page, so no populate lands on a
	// range after its drop. Lock order: dropMu, then allocMu.
	dropMu sync.Mutex
	// allocMu is the allocation lock: it guards extents and the populate
	// queue, and orders the scrub of a freed or vacated range before the
	// range can be granted again. It is a leaf — nothing is acquired under
	// it — and the data path never takes it.
	allocMu sync.Mutex
	extents *alloc.Extents
	// pending holds the offsets of granted huge pages not yet populated,
	// oldest first, each wholly inside a live extent; populating says a
	// populator goroutine is draining it; noPopulate says the host
	// cannot populate, so nothing more is queued.
	pending    []int64
	populating bool
	noPopulate bool
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
	n := &Node{
		name:     name,
		capacity: capacity,
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

// SharedBytes reports the current shared-region size (lock-free); the
// rest of the capacity is the server's private memory.
func (n *Node) SharedBytes() int64 { return n.shared.Load() }

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

// Alloc grants len(offs) extents of size bytes each (rounded up to
// pages) of the shared region and stores their offsets in offs, in grant
// order. Each extent reads as zeros. It is all or none: when the region
// cannot hold every extent it fails with an error wrapping
// alloc.ErrNoSpace and grants nothing. One call for a tenant's
// k extents is one trip to the allocation lock — over the wire, one
// round trip.
//
// The huge pages lying wholly inside an extent are queued to be made
// resident in the background, so the tenant's first pass over them does
// not fault; Alloc never waits for that. A partial huge page at either
// end is left to first touch: populating it would commit all of it, and
// the extent's Free could give back only its own part.
func (n *Node) Alloc(size int64, offs []int64) error {
	if len(offs) == 0 {
		return fmt.Errorf("memnode: grant of no extents: %w", alloc.ErrNoSpace)
	}
	n.allocMu.Lock()
	defer n.allocMu.Unlock()
	for i := range offs {
		off, err := n.extents.Alloc(size)
		if err != nil {
			// Nothing granted here has been handed out or populated: the
			// allocator's books are all there is to undo.
			for _, o := range offs[:i] {
				_, _, _, _ = n.extents.Free(o)
			}
			return err
		}
		offs[i] = off
	}
	if n.noPopulate {
		return nil
	}
	for _, off := range offs {
		end := off + (size+PageSize-1)/PageSize*PageSize
		for c := (off + hugePage - 1) / hugePage * hugePage; c+hugePage <= end; c += hugePage {
			n.pending = append(n.pending, c)
		}
	}
	if len(n.pending) > 0 && !n.populating {
		n.populating = true
		go n.populateQueued()
	}
	return nil
}

// populateQueued makes the queued huge pages resident, one at a time,
// and returns once the queue is empty, so it keeps the node reachable
// only while there is work. It holds dropMu across each huge page and
// allocMu only to take the next one off the queue.
func (n *Node) populateQueued() {
	ok := true
	for {
		n.dropMu.Lock()
		n.allocMu.Lock()
		if !ok {
			n.noPopulate, n.pending = true, nil
		}
		if len(n.pending) == 0 {
			n.populating, n.pending = false, nil
			n.allocMu.Unlock()
			n.dropMu.Unlock()
			return
		}
		c := n.pending[0]
		n.pending = n.pending[1:]
		n.allocMu.Unlock()
		ok = n.populate(c, c+hugePage)
		n.dropMu.Unlock()
	}
}

// Free takes back the extents granted at offs. Each extent is scrubbed —
// its pages go back to the host and read as zeros — before the
// allocation lock is released, so no later Alloc can be handed the
// previous tenant's bytes. An offset that is not the start of a live
// extent fails with an error wrapping alloc.ErrNotAllocated and frees
// nothing: every offset is checked before any extent is taken back. Free waits
// for a huge page being populated, if there is one, and unqueues the
// extents' own.
//
// The scrub reaches past each extent to whatever is free in the huge
// pages it overlaps: under huge pages a first write into a small extent
// faults in the whole huge page around it, and a neighbour's Free must
// give that back too, so a huge page with no granted byte in it holds
// nothing.
func (n *Node) Free(offs ...int64) error {
	n.dropMu.Lock()
	defer n.dropMu.Unlock()
	n.allocMu.Lock()
	defer n.allocMu.Unlock()
	for i, off := range offs {
		if !n.extents.Granted(off) || slices.Contains(offs[:i], off) {
			return fmt.Errorf("memnode: free at %d: %w", off, alloc.ErrNotAllocated)
		}
	}
	for _, off := range offs {
		size, lo, hi, _ := n.extents.Free(off)
		end := off + size
		n.pending = slices.DeleteFunc(n.pending, func(c int64) bool { return c >= off && c < end })
		n.release(max(lo, off/hugePage*hugePage), min(hi, (end+hugePage-1)/hugePage*hugePage))
		n.dropped.Add(uint64(size))
	}
	runtime.KeepAlive(n)
	return nil
}

// Resize moves the private/shared boundary to sharedBytes, rounded down
// to pages, anywhere in [0, capacity]. A shrink is refused, with an error
// wrapping alloc.ErrNoSpace and nothing changed, unless the tail it
// vacates is entirely free; it then drops that tail, so the memory goes
// back to the host and reads as zeros if the region grows again. Unlike
// Free it does not wait for a populate: it only ever drops free memory,
// and every queued or in-flight huge page lies in a live extent.
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

func (n *Node) rangeError(off int64, length int) error {
	return fmt.Errorf("%w: %d bytes at %d of %d", ErrOutOfRange, length, off, n.capacity)
}

// ReadAt copies len(p) bytes at offset off into p. Bytes never written
// read as zeros.
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
func (n *Node) WriteAt(p []byte, off int64) error {
	if !n.inRange(off, len(p)) {
		return n.rangeError(off, len(p))
	}
	copy(n.mem[off:], p)
	runtime.KeepAlive(n)
	return nil
}

// View returns the length bytes at offset off as a slice of the node's own
// memory, with no copy: the sending half of a remote read, which writes
// the reply out of lent memory. The view is not a snapshot — it shows
// whatever the node holds when it is read — and it is valid only while
// the node is mapped: the collector does not see a view as a reference to
// the node, so its holder must keep the node reachable until the view's
// last use, as every method here keeps n alive across its own copy.
func (n *Node) View(off int64, length int) ([]byte, error) {
	if length < 0 || !n.inRange(off, length) {
		return nil, n.rangeError(off, length)
	}
	end := off + int64(length)
	return n.mem[off:end:end], nil
}

// WriteFrom fills the length bytes at offset off with the next length
// bytes of r: the receiving half of a remote write, which lands the bytes
// in the node as they come off the wire instead of staging them in a
// buffer first. r sees the node's memory only as the argument of its
// Read calls, which an io.Reader must not retain, and the node is kept
// alive until the last of them has returned. An error from r
// (io.ErrUnexpectedEOF when it runs dry early) leaves the range partly
// written, like a torn write; nothing outside it is touched.
func (n *Node) WriteFrom(r io.Reader, off int64, length int) error {
	if length < 0 || !n.inRange(off, length) {
		return n.rangeError(off, length)
	}
	_, err := io.ReadFull(r, n.mem[off:off+int64(length)])
	runtime.KeepAlive(n)
	return err
}

// dropRange discards the contents of every page fully contained in
// [off, off+length) — the tail a shrink vacates (Free drops its extent's
// huge pages itself). The pages go back to the host and read as zeros
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
