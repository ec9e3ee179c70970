package core

import (
	"fmt"
	"sync"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/pagetable"
)

// AddressSpace is the application library's view of the pool on one
// server (§3.2: "an application library for allocating, controlling, and
// setting up disaggregated memory access — for example, by mapping a
// range of virtual addresses to memory in the pool"). Buffers map into a
// process-style virtual address space at page granularity; loads and
// stores translate VA → logical through a per-process MMU (with TLB), and
// logical → physical through the pool's two-step scheme.
type AddressSpace struct {
	pool   *Pool
	server addr.ServerID
	mmu    *pagetable.MMU

	mu       sync.Mutex
	nextVA   uint64
	mappings map[uint64]*Mapping // by base VA
}

// Mapping is one buffer's window in an address space.
type Mapping struct {
	VA     uint64
	Buffer *Buffer
	// Pages is the number of mapped virtual pages.
	Pages uint64

	unmapped bool
}

// vaBase leaves the null page and a guard region unmapped.
const vaBase = 1 << 20

// NewAddressSpace returns an empty address space for a process on the
// given server.
func (p *Pool) NewAddressSpace(server addr.ServerID) (*AddressSpace, error) {
	if err := p.checkServer(server); err != nil {
		return nil, err
	}
	return &AddressSpace{
		pool:     p,
		server:   server,
		mmu:      pagetable.NewMMU(),
		nextVA:   vaBase,
		mappings: make(map[uint64]*Mapping),
	}, nil
}

// Map binds the buffer into the address space and returns its mapping.
// Each virtual page's MMU entry carries the page's logical address, so
// VA translation composes with the pool's two-step scheme.
func (as *AddressSpace) Map(b *Buffer) (*Mapping, error) {
	if b == nil {
		return nil, fmt.Errorf("core: nil buffer")
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	pages := (uint64(b.Size()) + pagetable.PageSize - 1) / pagetable.PageSize
	if pages == 0 {
		return nil, fmt.Errorf("core: empty buffer")
	}
	base := as.nextVA
	as.nextVA += (pages + 1) * pagetable.PageSize // +1 guard page
	for i := uint64(0); i < pages; i++ {
		vpage := (base >> pagetable.PageShift) + i
		logical := int64(uint64(b.Addr()) + i*pagetable.PageSize)
		if err := as.mmu.Table.Map(vpage, logical); err != nil {
			return nil, err
		}
	}
	m := &Mapping{VA: base, Buffer: b, Pages: pages}
	as.mappings[base] = m
	return m, nil
}

// Unmap removes the mapping and shoots down its TLB entries.
func (as *AddressSpace) Unmap(m *Mapping) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	if m.unmapped {
		return fmt.Errorf("core: mapping at %#x already unmapped", m.VA)
	}
	if as.mappings[m.VA] != m {
		return fmt.Errorf("core: mapping at %#x not in this address space", m.VA)
	}
	for i := uint64(0); i < m.Pages; i++ {
		vpage := (m.VA >> pagetable.PageShift) + i
		as.mmu.Table.Unmap(vpage)
		as.mmu.TLB.InvalidatePage(vpage)
	}
	delete(as.mappings, m.VA)
	m.unmapped = true
	return nil
}

// translate resolves a VA to a logical address through the MMU.
func (as *AddressSpace) translate(va uint64) (addr.Logical, error) {
	logical, err := as.mmu.Translate(va)
	if err != nil {
		return 0, fmt.Errorf("core: segmentation fault at VA %#x: %w", va, err)
	}
	return addr.Logical(logical), nil
}

// Read loads len(buf) bytes from virtual address va. Accesses crossing
// page boundaries translate each page separately, as hardware would.
func (as *AddressSpace) Read(va uint64, buf []byte) error {
	return as.access(va, buf, false)
}

// Write stores data at virtual address va.
func (as *AddressSpace) Write(va uint64, data []byte) error {
	return as.access(va, data, true)
}

func (as *AddressSpace) access(va uint64, buf []byte, write bool) error {
	done := 0
	for done < len(buf) {
		cur := va + uint64(done)
		pageOff := cur & (pagetable.PageSize - 1)
		n := int(pagetable.PageSize - pageOff)
		if rem := len(buf) - done; rem < n {
			n = rem
		}
		logical, err := as.translate(cur)
		if err != nil {
			return err
		}
		if write {
			err = as.pool.Write(as.server, logical, buf[done:done+n])
		} else {
			err = as.pool.Read(as.server, logical, buf[done:done+n])
		}
		if err != nil {
			return err
		}
		done += n
	}
	return nil
}

// TLBStats reports the address space's TLB hits and misses.
func (as *AddressSpace) TLBStats() (hits, misses uint64) {
	return as.mmu.TLB.Stats()
}
