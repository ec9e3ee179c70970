package alloc

import (
	"fmt"
	"sync"

	"github.com/lmp-project/lmp/internal/addr"
)

// Policy selects how allocations are spread across servers' shared
// regions.
type Policy int

const (
	// FirstFit packs each allocation into the first region with room.
	FirstFit Policy = iota
	// RoundRobin rotates whole allocations across regions.
	RoundRobin
	// LocalityAware places on the requesting server when possible, then
	// falls back to the region with the most free space.
	LocalityAware
	// Striped splits every allocation into slice-sized stripes dealt
	// round-robin across regions, maximizing aggregate bandwidth.
	Striped
)

func (p Policy) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case RoundRobin:
		return "round-robin"
	case LocalityAware:
		return "locality-aware"
	case Striped:
		return "striped"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Chunk is one placed piece of an allocation.
type Chunk struct {
	Server addr.ServerID
	Offset int64
	Size   int64
}

// RegionAlloc is what the placer needs of a lender: the runtime hands it
// its servers' lenders (a Free there also scrubs the extent). A placed
// chunk is one extent of its region, and its holder gives it back with
// that region's Free: the placer itself frees only the partial placement
// a failed Place rolls back.
type RegionAlloc interface {
	Alloc(n int64) (int64, error)
	Free(offset int64) (int64, error)
	FreeBytes() int64
}

// Region couples a server with the lender of its shared region.
type Region struct {
	Server addr.ServerID
	Mem    RegionAlloc
}

// Placer spreads allocations across regions under a policy. It is safe
// for concurrent use.
type Placer struct {
	mu      sync.Mutex
	policy  Policy
	regions []*Region
	next    int
	stripe  int64

	// MaxChunk, when positive, caps every placed chunk's size: large
	// allocations are split into stripe-sized pieces even when one region
	// could hold them whole. The LMP runtime sets it to the slice size so
	// chunks can be freed and migrated independently.
	MaxChunk int64

	// Exclude, when set, vetoes placement on a server (the LMP runtime
	// points it at the crash detector so new allocations never land on
	// dead servers). It must be safe to call concurrently and cheap: it
	// runs under the placer lock on every placement.
	Exclude func(addr.ServerID) bool
}

// usable reports whether region r may receive new placements.
func (p *Placer) usable(r *Region) bool {
	return p.Exclude == nil || !p.Exclude(r.Server)
}

// NewPlacer returns a placer over the given regions. stripeBytes sets the
// granularity for Striped and for spilling large allocations; it must be
// positive (addr.SliceSize is the natural choice).
func NewPlacer(policy Policy, stripeBytes int64, regions ...*Region) (*Placer, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("alloc: placer needs at least one region")
	}
	if stripeBytes <= 0 {
		return nil, fmt.Errorf("alloc: stripe %d must be positive", stripeBytes)
	}
	return &Placer{policy: policy, regions: regions, stripe: stripeBytes}, nil
}

// Policy reports the active placement policy.
func (p *Placer) Policy() Policy { return p.policy }

// TotalFree reports unallocated bytes across all regions.
func (p *Placer) TotalFree() int64 {
	var t int64
	for _, r := range p.regions {
		t += r.Mem.FreeBytes()
	}
	return t
}

// Place reserves n bytes, possibly split across servers, honouring the
// policy. prefer names the requesting server for LocalityAware. On
// failure every partial reservation is rolled back and ErrNoSpace is
// wrapped in the returned error.
func (p *Placer) Place(n int64, prefer addr.ServerID) ([]Chunk, error) {
	if n <= 0 {
		return nil, fmt.Errorf("alloc: place of %d bytes", n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var chunks []Chunk
	var err error
	switch p.policy {
	case Striped:
		chunks, err = p.placeStriped(n)
	case FirstFit:
		chunks, err = p.placeWhole(n, p.orderedFrom(0))
	case RoundRobin:
		start := p.next
		p.next = (p.next + 1) % len(p.regions)
		chunks, err = p.placeWhole(n, p.orderedFrom(start))
	case LocalityAware:
		chunks, err = p.placeWhole(n, p.localityOrder(prefer))
	default:
		return nil, fmt.Errorf("alloc: unknown policy %v", p.policy)
	}
	if err != nil {
		p.rollback(chunks)
		return nil, err
	}
	return chunks, nil
}

// PlaceStriped reserves n bytes dealt round-robin across regions in
// stripe-sized pieces, regardless of the placer's policy. Erasure-coded
// buffers use it so a stripe's data shards land on distinct servers.
func (p *Placer) PlaceStriped(n int64) ([]Chunk, error) {
	if n <= 0 {
		return nil, fmt.Errorf("alloc: place of %d bytes", n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	chunks, err := p.placeStriped(n)
	if err != nil {
		p.rollback(chunks)
		return nil, err
	}
	return chunks, nil
}

func (p *Placer) regionOf(s addr.ServerID) *Region {
	for _, r := range p.regions {
		if r.Server == s {
			return r
		}
	}
	return nil
}

func (p *Placer) orderedFrom(start int) []*Region {
	out := make([]*Region, 0, len(p.regions))
	for i := 0; i < len(p.regions); i++ {
		if r := p.regions[(start+i)%len(p.regions)]; p.usable(r) {
			out = append(out, r)
		}
	}
	return out
}

func (p *Placer) localityOrder(prefer addr.ServerID) []*Region {
	out := make([]*Region, 0, len(p.regions))
	if r := p.regionOf(prefer); r != nil && p.usable(r) {
		out = append(out, r)
	}
	// Remaining regions by descending free space.
	rest := make([]*Region, 0, len(p.regions))
	for _, r := range p.regions {
		if r.Server != prefer && p.usable(r) {
			rest = append(rest, r)
		}
	}
	for len(rest) > 0 {
		best := 0
		for i, r := range rest {
			if r.Mem.FreeBytes() > rest[best].Mem.FreeBytes() {
				best = i
			}
		}
		out = append(out, rest[best])
		rest = append(rest[:best], rest[best+1:]...)
	}
	return out
}

// placeWhole tries to place n contiguously in one region (in preference
// order), spilling across regions in stripe-sized chunks when no single
// region fits.
func (p *Placer) placeWhole(n int64, order []*Region) ([]Chunk, error) {
	if p.MaxChunk <= 0 || n <= p.MaxChunk {
		for _, r := range order {
			if off, err := r.Mem.Alloc(n); err == nil {
				return []Chunk{{Server: r.Server, Offset: off, Size: n}}, nil
			}
		}
	}
	return p.spill(n, order)
}

func (p *Placer) spill(n int64, order []*Region) ([]Chunk, error) {
	var chunks []Chunk
	remaining := n
	for _, r := range order {
		for remaining > 0 {
			sz := p.stripe
			if remaining < sz {
				sz = remaining
			}
			off, err := r.Mem.Alloc(sz)
			if err != nil {
				break
			}
			chunks = append(chunks, Chunk{Server: r.Server, Offset: off, Size: sz})
			remaining -= sz
		}
		if remaining == 0 {
			return chunks, nil
		}
	}
	return chunks, fmt.Errorf("%w: %d bytes short placing %d", ErrNoSpace, remaining, n)
}

func (p *Placer) placeStriped(n int64) ([]Chunk, error) {
	var chunks []Chunk
	remaining := n
	failures := 0
	for remaining > 0 {
		r := p.regions[p.next]
		p.next = (p.next + 1) % len(p.regions)
		sz := p.stripe
		if remaining < sz {
			sz = remaining
		}
		if !p.usable(r) {
			failures++
			if failures >= len(p.regions) {
				return chunks, fmt.Errorf("%w: %d bytes short placing %d", ErrNoSpace, remaining, n)
			}
			continue
		}
		off, err := r.Mem.Alloc(sz)
		if err != nil {
			failures++
			if failures >= len(p.regions) {
				return chunks, fmt.Errorf("%w: %d bytes short placing %d", ErrNoSpace, remaining, n)
			}
			continue
		}
		failures = 0
		chunks = append(chunks, Chunk{Server: r.Server, Offset: off, Size: sz})
		remaining -= sz
	}
	return chunks, nil
}

func (p *Placer) rollback(chunks []Chunk) {
	for _, c := range chunks {
		if r := p.regionOf(c.Server); r != nil {
			_, _ = r.Mem.Free(c.Offset)
		}
	}
}
