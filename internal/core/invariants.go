package core

import (
	"errors"
	"fmt"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/failure"
)

// CheckInvariants verifies the pool's cross-layer bookkeeping and returns
// every violation found, joined. It is the oracle the chaos driver runs
// before every op:
//
//   - every slice of every live buffer has a published backing — the
//     pool's only record of the slice's home — that points back at it;
//   - every published slice-table entry belongs to a live buffer (no
//     orphans surviving Release);
//   - freed logical runs have no published backings;
//   - protected buffers remain reconstructible: a replicated slice keeps
//     at least one live copy, and an erasure-coded stripe has at most M
//     unavailable shards;
//   - every live server's region has exactly one slice-sized extent in
//     use per block homed there (published primaries, replica blocks,
//     parity rows): an abort path that forgot to free its reservation, or
//     a move that forgot the old extent, shows up as a leak. This one is
//     only meaningful at quiescence — an Alloc or a move in flight holds
//     a reservation nothing points at yet.
//
// The reconstructibility checks assume placement never had to fall back
// onto an already-used server (ample capacity), which harness
// configurations must guarantee. CheckInvariants takes the structural
// lock, so it linearizes with allocation, release, crash, and repair.
func (p *Pool) CheckInvariants() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var violations []error
	report := func(format string, args ...any) {
		violations = append(violations, fmt.Errorf(format, args...))
	}

	for la, b := range p.buffers {
		if b.rng.Start != la {
			report("buffer keyed at %v has range start %v", la, b.rng.Start)
			continue
		}
		if b.released.Load() {
			report("released buffer %v still indexed", la)
			continue
		}
		first := b.firstSlice()
		for i := uint64(0); i < b.sliceCount(); i++ {
			s := first + i
			back := p.lookupSlice(s)
			if back == nil {
				report("buffer %v slice %d has no published backing", la, s)
				continue
			}
			if back.buf != b {
				report("buffer %v slice %d backing points at a different buffer", la, s)
			}
		}
		p.checkProtectionLocked(b, report)
	}

	homed := make([]int64, len(p.nodes)) // blocks per server
	t := p.table.Load()
	for s := range t.entries {
		back := t.entries[s].Load()
		if back == nil {
			continue
		}
		homed[back.server]++
		if back.buf == nil || p.buffers[back.buf.rng.Start] != back.buf {
			report("orphan slice %d published with no live buffer", s)
		}
	}
	for _, b := range p.buffers {
		for _, cp := range b.copies {
			for _, c := range cp {
				homed[c.Server]++
			}
		}
		if b.ec != nil {
			for _, st := range b.ec.stripes {
				for _, pb := range st.parity {
					homed[pb.server]++
				}
			}
		}
	}
	for s, n := range homed {
		if inUse := inUse(p.nodes[s]); !p.isDead(addr.ServerID(s)) && inUse != n*SliceSize {
			report("server %d: %d slices of extents in use, %d blocks homed there", s, inUse/SliceSize, n)
		}
	}

	for _, r := range p.freeRuns {
		first := addr.SliceOf(r.Start)
		for i := uint64(0); i < uint64(r.Size/SliceSize); i++ {
			if p.lookupSlice(first+i) != nil {
				report("freed run at %v has a published backing for slice %d", r.Start, first+i)
			}
		}
	}

	if p.caches != nil {
		p.checkCacheLocked(report)
	}

	return errors.Join(violations...)
}

// checkProtectionLocked verifies buffer b is still reconstructible under
// its protection policy. Caller holds p.mu.
func (p *Pool) checkProtectionLocked(b *Buffer, report func(string, ...any)) {
	first := b.firstSlice()
	switch b.prot.Scheme {
	case failure.Replicate:
		for i := uint64(0); i < b.sliceCount(); i++ {
			live := 0
			if back := p.lookupSlice(first + i); back != nil && !p.isDead(back.server) {
				live++
			}
			for _, cp := range b.copies {
				if i < uint64(len(cp)) && !p.isDead(cp[i].Server) {
					live++
				}
			}
			if live == 0 {
				report("buffer %v slice %d: all %d copies on dead servers", b.rng.Start, first+i, b.prot.Copies)
			}
		}
	case failure.ErasureCode:
		if b.ec == nil {
			report("buffer %v declares erasure coding but has no EC state", b.rng.Start)
			return
		}
		for si := range b.ec.stripes {
			st := &b.ec.stripes[si]
			erased := 0
			for j := 0; j < b.prot.K; j++ {
				slIdx := st.firstIdx + uint64(j)
				if slIdx >= b.sliceCount() {
					continue // virtual zero shard, always available
				}
				back := p.lookupSlice(first + slIdx)
				if back == nil || p.isDead(back.server) {
					erased++
				}
			}
			for _, pb := range st.parity {
				if p.isDead(pb.server) {
					erased++
				}
			}
			if erased > b.prot.M {
				report("buffer %v EC stripe %d: %d shards unavailable, tolerance %d",
					b.rng.Start, si, erased, b.prot.M)
			}
		}
	}
}
