// Package coherence implements the software-managed coherence engine for
// the LMP's small coherent region (§3.2, §5 "Cache coherence"). It is a
// directory protocol with MSI states, an inclusive snoop filter of bounded
// capacity with back-invalidation on overflow, and a configurable tracking
// granularity: tracking finer than a cache line avoids false sharing, the
// optimization the paper calls out.
//
// The engine counts protocol traffic (fetches, invalidations, writebacks,
// back-invalidations) so policies and benchmarks can compare granularities
// and coordination patterns.
package coherence

import (
	"fmt"
	"slices"
	"sync"

	"github.com/lmp-project/lmp/internal/hashtab"
	"github.com/lmp-project/lmp/internal/telemetry"
)

// NodeID identifies a caching agent (a server).
type NodeID int

// State is a directory entry's MSI state.
type State int

const (
	// Invalid: no cached copies.
	Invalid State = iota
	// Shared: one or more read-only copies.
	Shared
	// Modified: exactly one writable copy.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Stats aggregates protocol traffic counters. WriteNoAllocate grants no
// copy, so it counts no Fetch, and a block it leaves untracked leaves no
// copy to write back later.
type Stats struct {
	Fetches         uint64 // block copies granted to a node
	Invalidations   uint64 // copies killed on write upgrades
	Writebacks      uint64 // dirty data forced back on downgrades
	BackInvalidates uint64 // filter-capacity evictions (inclusive filter)
	Hits            uint64 // access already permitted, no traffic
	LostDirty       uint64 // modified copies lost to node crashes (DropNode)
}

// block is one tracked block's directory state. holders is a small
// unordered set updated in place; its array survives the block's
// eviction and is reused by whichever block takes the filter slot next.
type block struct {
	state   State
	owner   NodeID
	holders []NodeID
}

// drop removes node from the holder set, reporting whether it was there.
func (b *block) drop(node NodeID) bool {
	i := slices.Index(b.holders, node)
	if i < 0 {
		return false
	}
	last := len(b.holders) - 1
	b.holders[i] = b.holders[last]
	b.holders = b.holders[:last]
	return true
}

// Directory is the coherence engine. It is safe for concurrent use.
type Directory struct {
	granularity int64
	capacity    int

	mu sync.Mutex
	// blocks is the inclusive snoop filter: the tracked blocks keyed by
	// block index, in exact least-recently-acquired order, so the
	// back-invalidation victim is Oldest() — O(1) however large the
	// filter — and an evicted entry's storage is recycled by the block
	// that displaced it.
	blocks hashtab.List[block]
	stats  Stats

	// Telemetry mirrors the internal counters into a registry if set.
	Registry *telemetry.Registry

	// OnBackInvalidate, if set, is called when the inclusive snoop
	// filter evicts a block to admit another: every listed holder's
	// cached copy of the block must be discarded to preserve inclusivity
	// (the directory no longer tracks them). The callback runs under the
	// directory lock and must not call back into the directory; callees
	// with their own locks (the page cache's shards) must order them
	// strictly after the directory's. holders is the directory's own
	// storage: read it during the call, do not keep it.
	OnBackInvalidate func(block int64, holders []NodeID)

	// Resident, if set, is asked by Evict under the directory lock whether
	// node holds a copy of block again: a replacement notice that raced a
	// re-fill by the same node must not drop the new copy's registration.
	// The same lock rules as OnBackInvalidate apply.
	Resident func(node NodeID, block int64) bool
}

// NewDirectory returns a coherence directory tracking blocks of
// granularity bytes, with an inclusive snoop filter capacity of
// capacityBlocks entries. Granularity must be a positive power of two.
func NewDirectory(granularity int64, capacityBlocks int) (*Directory, error) {
	if granularity <= 0 || granularity&(granularity-1) != 0 {
		return nil, fmt.Errorf("coherence: granularity %d must be a power of two", granularity)
	}
	if capacityBlocks <= 0 {
		return nil, fmt.Errorf("coherence: capacity %d must be positive", capacityBlocks)
	}
	d := &Directory{granularity: granularity, capacity: capacityBlocks}
	// The filter grows with the blocks actually tracked, up to its
	// capacity: a coherent region nobody touches costs nothing.
	d.blocks.Init(capacityBlocks)
	return d, nil
}

// Granularity reports the tracking block size.
func (d *Directory) Granularity() int64 { return d.granularity }

// BlockOf maps a byte address in the coherent region to its block index.
func (d *Directory) BlockOf(addr int64) int64 { return addr / d.granularity }

// Stats returns a copy of the traffic counters.
func (d *Directory) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// TrackedBlocks reports the snoop filter occupancy.
func (d *Directory) TrackedBlocks() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.blocks.Len()
}

// StateOf reports the directory state of the block containing addr.
func (d *Directory) StateOf(addr int64) (State, []NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	h, ok := d.blocks.Get(uint64(d.BlockOf(addr)))
	if !ok {
		return Invalid, nil
	}
	b := d.blocks.At(h)
	return b.state, slices.Clone(b.holders)
}

// acquire returns the block containing addrByte as the most recently
// acquired one, admitting it into the filter if it is not tracked and
// back-invalidating the least recently acquired block when the filter
// is full.
func (d *Directory) acquire(addrByte int64) *block {
	idx := uint64(d.BlockOf(addrByte))
	if h, ok := d.blocks.Get(idx); ok {
		d.blocks.Touch(h)
		return d.blocks.At(h)
	}
	if d.blocks.Len() >= d.capacity {
		// Inclusive filter: every cached copy of the victim must be killed.
		v := d.blocks.Oldest()
		victim := d.blocks.At(v)
		d.stats.BackInvalidates++
		d.stats.Invalidations += uint64(len(victim.holders))
		if victim.state == Modified {
			d.stats.Writebacks++
		}
		if d.Registry != nil {
			d.Registry.Counter("coherence.back_invalidates").Inc()
		}
		if d.OnBackInvalidate != nil && len(victim.holders) > 0 {
			d.OnBackInvalidate(int64(d.blocks.Key(v)), victim.holders)
		}
		d.blocks.Remove(v)
	}
	b := d.blocks.At(d.blocks.Push(idx))
	b.state, b.owner, b.holders = Invalid, 0, b.holders[:0]
	return b
}

// AcquireRead obtains a readable copy of the block containing addr for
// node. It returns the list of nodes that had to downgrade (writeback).
func (d *Directory) AcquireRead(node NodeID, addrByte int64) ([]NodeID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	b := d.acquire(addrByte)
	switch b.state {
	case Invalid:
		b.state = Shared
		b.holders = append(b.holders, node)
		d.stats.Fetches++
		return nil, nil
	case Shared:
		if slices.Contains(b.holders, node) {
			d.stats.Hits++
			return nil, nil
		}
		b.holders = append(b.holders, node)
		d.stats.Fetches++
		return nil, nil
	case Modified:
		if b.owner == node {
			d.stats.Hits++
			return nil, nil
		}
		// Downgrade the owner: writeback, then share. In Modified the
		// owner is the sole holder.
		prev := b.owner
		d.stats.Writebacks++
		d.stats.Fetches++
		b.state = Shared
		b.holders = append(b.holders, node)
		return []NodeID{prev}, nil
	}
	return nil, fmt.Errorf("coherence: corrupt state %v", b.state)
}

// AcquireWrite obtains an exclusive writable copy for node, invalidating
// all other holders; the invalidated nodes are returned. It is
// write-allocate: an untracked block is admitted with node as its owner.
func (d *Directory) AcquireWrite(node NodeID, addrByte int64) ([]NodeID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	b := d.acquire(addrByte)
	killed, hadCopy := d.killOthers(b, node)
	if !hadCopy {
		d.stats.Fetches++
		b.state, b.owner, b.holders = Modified, node, append(b.holders, node)
	}
	return killed, nil
}

// WriteNoAllocate is the write of a node that does not cache on a write:
// every other holder's copy of the block containing addr is killed and
// returned, and node stays as the Modified owner only if it already held
// a copy, which holds reports. An untracked block costs one lookup and is
// not admitted, and a block left with no holder is untracked, so the
// directory records only copies that exist.
func (d *Directory) WriteNoAllocate(node NodeID, addrByte int64) (killed []NodeID, holds bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	h, ok := d.blocks.Get(uint64(d.BlockOf(addrByte)))
	if !ok {
		return nil, false
	}
	killed, holds = d.killOthers(d.blocks.At(h), node)
	if holds {
		d.blocks.Touch(h)
	} else {
		d.blocks.Remove(h)
	}
	return killed, holds
}

// killOthers invalidates every holder of b but node and returns them (in
// a slice of their own, nil when there are none), reporting whether node
// held a copy; if it did it is left as b's Modified owner and only holder,
// otherwise b is left Invalid with no holders.
func (d *Directory) killOthers(b *block, node NodeID) ([]NodeID, bool) {
	if b.state == Modified && b.owner == node {
		d.stats.Hits++
		return nil, true
	}
	hadCopy := b.drop(node)
	var killed []NodeID
	if len(b.holders) > 0 {
		killed = slices.Clone(b.holders)
	}
	if b.state == Modified {
		d.stats.Writebacks++
	}
	d.stats.Invalidations += uint64(len(killed))
	b.state, b.holders = Invalid, b.holders[:0]
	if hadCopy {
		b.state, b.owner, b.holders = Modified, node, append(b.holders, node)
	}
	return killed, hadCopy
}

// DropNode removes every copy node holds — a crash-stop failure. Unlike
// Evict, a dropped Modified owner performs no writeback: the dirty data
// died with the server. The count of such lost dirty blocks is returned;
// the caller decides whether a protected backing store masks them. The
// directory itself stays consistent: no block retains the dead node as a
// holder or owner.
func (d *Directory) DropNode(node NodeID) (lostDirty int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for h := d.blocks.Oldest(); h >= 0; {
		next := d.blocks.Newer(h)
		if b := d.blocks.At(h); b.drop(node) {
			if b.state == Modified && b.owner == node {
				// In Modified the owner is the sole holder, so the block
				// empties and is untracked below.
				lostDirty++
				b.state = Invalid
			}
			if len(b.holders) == 0 {
				d.blocks.Remove(h)
			}
		}
		h = next
	}
	d.stats.LostDirty += uint64(lostDirty)
	if d.Registry != nil && lostDirty > 0 {
		d.Registry.Counter("coherence.lost_dirty").Add(uint64(lostDirty))
	}
	return lostDirty
}

// Evict removes node's copy of the block containing addr (a cache
// replacement on the node), writing back if it was the modified owner.
// With Resident set, a node that holds the block again keeps it.
func (d *Directory) Evict(node NodeID, addrByte int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	blk := d.BlockOf(addrByte)
	h, ok := d.blocks.Get(uint64(blk))
	if !ok {
		return
	}
	b := d.blocks.At(h)
	if !slices.Contains(b.holders, node) || (d.Resident != nil && d.Resident(node, blk)) {
		return
	}
	b.drop(node)
	if b.state == Modified && b.owner == node {
		d.stats.Writebacks++
		b.state = Invalid
	}
	if len(b.holders) == 0 {
		d.blocks.Remove(h)
	} else if b.state == Modified {
		b.state = Shared
	}
}
