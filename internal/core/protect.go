package core

import (
	"fmt"
	"sync"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/coherence"
	"github.com/lmp-project/lmp/internal/failure"
)

// ecState holds a buffer's erasure-coding metadata: its slices are grouped
// into stripes of K data slices with M parity blocks each, placed on
// servers distinct from the stripe's data servers where possible.
type ecState struct {
	rs      *failure.RS
	stripes []ecStripe
	// mu serializes parity read-modify-writes: writers of sibling data
	// slices in one stripe share parity blocks, and their slice stripe
	// locks do not order them against each other. Lock order: stripe
	// lock → ec.mu.
	mu sync.Mutex
}

type ecStripe struct {
	// firstIdx is the index (within the buffer) of the stripe's first
	// data slice; the stripe covers data slices firstIdx..firstIdx+K-1,
	// where trailing missing slices are implicit zero shards.
	firstIdx uint64
	parity   []parityBlock
	// version counts stripe mutations (data-shard writes and their
	// parity deltas), guarded by ec.mu. The parity-rebuild path
	// snapshots it so an optimistic recompute detects a concurrent
	// write and retries instead of swapping in a stale row.
	version uint64
}

type parityBlock struct {
	server addr.ServerID
	offset int64
}

// protectLocked sets up the buffer's protection at allocation time.
// Newly allocated pool memory reads as zeros, so fresh replicas and
// parity (GF-linear over zero data) are correct without any copying.
func (p *Pool) protectLocked(b *Buffer, chunks []alloc.Chunk, from addr.ServerID) error {
	switch b.prot.Scheme {
	case failure.None:
		return nil
	case failure.Replicate:
		return p.setupReplicasLocked(b, chunks)
	case failure.ErasureCode:
		return p.setupErasureLocked(b, chunks)
	default:
		return fmt.Errorf("core: unknown protection scheme %v", b.prot.Scheme)
	}
}

// allocAvoiding allocates one slice of backing on a live server different
// from every server in avoid, preferring the emptiest region. A best-
// effort fallback onto an avoid server is used only when no other server
// has room.
func (p *Pool) allocAvoiding(avoid map[addr.ServerID]bool) (addr.ServerID, int64, error) {
	type cand struct {
		s    addr.ServerID
		free int64
	}
	var primary, fallback []cand
	for i := range p.nodes {
		s := addr.ServerID(i)
		if p.isDead(s) {
			continue
		}
		c := cand{s: s, free: p.nodes[i].FreeBytes()}
		if avoid[s] {
			fallback = append(fallback, c)
		} else {
			primary = append(primary, c)
		}
	}
	try := func(cs []cand) (addr.ServerID, int64, bool) {
		best := -1
		for i, c := range cs {
			if c.free < SliceSize {
				continue
			}
			if best < 0 || c.free > cs[best].free {
				best = i
			}
		}
		if best < 0 {
			return 0, 0, false
		}
		off, err := p.nodes[cs[best].s].Alloc(SliceSize)
		if err != nil {
			return 0, 0, false
		}
		return cs[best].s, off, true
	}
	if s, off, ok := try(primary); ok {
		return s, off, nil
	}
	if s, off, ok := try(fallback); ok {
		return s, off, nil
	}
	return 0, 0, fmt.Errorf("core: protection backing: %w", alloc.ErrNoSpace)
}

// setupReplicasLocked and setupErasureLocked record each protection
// block in b as it is reserved — rows grow by append, never pre-sized —
// so when placement runs out, teardownLocked frees exactly what was
// reserved: a pre-sized row's unfilled slots would be zero Chunks naming
// server 0 offset 0, somebody else's extent.
func (p *Pool) setupReplicasLocked(b *Buffer, chunks []alloc.Chunk) error {
	copies := b.prot.Copies - 1 // primary counts as the first copy
	for c := 0; c < copies; c++ {
		b.copies = append(b.copies, make([]alloc.Chunk, 0, len(chunks)))
		for i, primary := range chunks {
			avoid := map[addr.ServerID]bool{primary.Server: true}
			for prev := 0; prev < c; prev++ {
				avoid[b.copies[prev][i].Server] = true
			}
			s, off, err := p.allocAvoiding(avoid)
			if err != nil {
				return err
			}
			b.copies[c] = append(b.copies[c], alloc.Chunk{Server: s, Offset: off, Size: SliceSize})
		}
	}
	return nil
}

func (p *Pool) setupErasureLocked(b *Buffer, chunks []alloc.Chunk) error {
	rs, err := failure.NewRS(b.prot.K, b.prot.M)
	if err != nil {
		return err
	}
	b.ec = &ecState{rs: rs}
	for start := uint64(0); start < uint64(len(chunks)); start += uint64(b.prot.K) {
		b.ec.stripes = append(b.ec.stripes, ecStripe{firstIdx: start})
		stripe := &b.ec.stripes[len(b.ec.stripes)-1]
		avoid := map[addr.ServerID]bool{}
		end := start + uint64(b.prot.K)
		if end > uint64(len(chunks)) {
			end = uint64(len(chunks))
		}
		for i := start; i < end; i++ {
			avoid[chunks[i].Server] = true
		}
		for m := 0; m < b.prot.M; m++ {
			s, off, err := p.allocAvoiding(avoid)
			if err != nil {
				return err
			}
			avoid[s] = true
			stripe.parity = append(stripe.parity, parityBlock{server: s, offset: off})
		}
	}
	return nil
}

// writeReplicas propagates a write through to the buffer's replica
// copies. idx is the slice index within the buffer. The caller holds the
// primary slice's stripe lock in write mode, which serializes replica
// updates for that slice.
func (p *Pool) writeReplicas(b *Buffer, idx uint64, sliceOff int64, newData []byte) error {
	for _, cp := range b.copies {
		c := cp[idx]
		if p.isDead(c.Server) {
			continue // stale replica; repaired on RepairServer
		}
		if err := p.nodes[c.Server].WriteAt(newData, c.Offset+sliceOff); err != nil {
			return err
		}
	}
	return nil
}

// writeParityDelta applies an EC parity delta for a write of newData at
// sliceOff within buffer slice index idx, given the old bytes. The
// caller holds b.ec.mu.
func (p *Pool) writeParityDelta(b *Buffer, idx uint64, sliceOff int64, oldData, newData []byte) error {
	k := uint64(b.prot.K)
	stripeIdx := idx / k
	if stripeIdx >= uint64(len(b.ec.stripes)) {
		return fmt.Errorf("core: stripe %d out of range", stripeIdx)
	}
	st := &b.ec.stripes[stripeIdx]
	st.version++
	shard := int(idx - st.firstIdx)
	delta := make([]byte, len(newData))
	for i := range delta {
		delta[i] = oldData[i] ^ newData[i]
	}
	for m, pb := range st.parity {
		if p.isDead(pb.server) {
			continue
		}
		coef := b.ec.rs.Coefficient(m, shard)
		patch := make([]byte, len(delta))
		if err := p.nodes[pb.server].ReadAt(patch, pb.offset+sliceOff); err != nil {
			return err
		}
		failure.AddScaled(patch, delta, coef)
		if err := p.nodes[pb.server].WriteAt(patch, pb.offset+sliceOff); err != nil {
			return err
		}
	}
	return nil
}

// protectionServersLocked returns the servers that hold protection state
// for buffer slice index idx: replica copies, and — for erasure coding —
// the other data shards and parity blocks of its stripe. Placing the
// primary on any of them would reduce the failures the buffer tolerates.
func (p *Pool) protectionServersLocked(b *Buffer, idx uint64) map[addr.ServerID]bool {
	avoid := make(map[addr.ServerID]bool)
	for _, cp := range b.copies {
		if idx < uint64(len(cp)) {
			avoid[cp[idx].Server] = true
		}
	}
	if b.ec != nil {
		k := uint64(b.prot.K)
		stripeIdx := idx / k
		if stripeIdx < uint64(len(b.ec.stripes)) {
			// By pointer: a copy would read the stripe's version, which
			// writers bump under ec.mu alone.
			st := &b.ec.stripes[stripeIdx]
			for _, pb := range st.parity {
				avoid[pb.server] = true
			}
			first := b.firstSlice()
			for j := uint64(0); j < k; j++ {
				slIdx := st.firstIdx + j
				if slIdx == idx || slIdx >= b.sliceCount() {
					continue
				}
				if sib := p.lookupSlice(first + slIdx); sib != nil {
					avoid[sib.server] = true
				}
			}
		}
	}
	return avoid
}

// Crash marks server s as failed: its memory contents are lost to the
// pool. Reads of data it owned are masked through protection or raise a
// MemoryException.
func (p *Pool) Crash(s addr.ServerID) error {
	if err := p.checkServer(s); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dead[s].Store(true)
	if p.caches != nil {
		// Crash-stop: the dead node's cached pages die with it — purged,
		// never written back (they are clean by construction). Pending
		// combined writes are NOT dropped: the pool accepted them, and the
		// flush applies them after recovery re-homes their slices.
		p.caches[s].InvalidateAll()
		p.pageDir.DropNode(coherence.NodeID(s))
	}
	p.metrics.Counter("pool.crashes").Inc()
	return nil
}

// Dead reports whether server s has crashed.
func (p *Pool) Dead(s addr.ServerID) bool { return p.isDead(s) }
