package alloc

import (
	"fmt"
	"slices"
	"sort"
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
// that region's Free: the placer itself frees only a grant it rolls
// back. Alloc grants len(offs) extents of size bytes each, all or none,
// so a placement asks each region once for all the chunks it deals it.
// Usage reports the shared region's size and its granted bytes; the
// placer reads it once per region per placement, and a region that
// cannot say has no room.
type RegionAlloc interface {
	Alloc(size int64, offs []int64) error
	Free(offs ...int64) error
	Usage() (shared, inUse int64, err error)
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
		t += freeBytes(r)
	}
	return t
}

// freeBytes reads r's ungranted bytes: 0 when it cannot say.
func freeBytes(r *Region) int64 {
	shared, inUse, err := r.Mem.Usage()
	if err != nil {
		return 0
	}
	return shared - inUse
}

// Place reserves n bytes, possibly split across servers, honouring the
// policy. prefer names the requesting server for LocalityAware. On
// failure nothing stays reserved and ErrNoSpace is wrapped in the
// returned error.
func (p *Placer) Place(n int64, prefer addr.ServerID) ([]Chunk, error) {
	if n <= 0 {
		return nil, fmt.Errorf("alloc: place of %d bytes", n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch p.policy {
	case Striped:
		return p.placeStriped(n)
	case FirstFit:
		return p.placeWhole(n, p.orderedFrom(0), nil)
	case RoundRobin:
		start := p.next
		p.next = (p.next + 1) % len(p.regions)
		return p.placeWhole(n, p.orderedFrom(start), nil)
	case LocalityAware:
		order, room := p.localityOrder(prefer)
		return p.placeWhole(n, order, room)
	default:
		return nil, fmt.Errorf("alloc: unknown policy %v", p.policy)
	}
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
	return p.placeStriped(n)
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

// localityOrder puts the requester first and the other regions after
// it by descending free bytes, and returns those bytes with the order.
func (p *Placer) localityOrder(prefer addr.ServerID) ([]*Region, []int64) {
	type cand struct {
		r    *Region
		free int64
	}
	var first, rest []cand
	for _, r := range p.regions {
		if !p.usable(r) {
			continue
		}
		if c := (cand{r, freeBytes(r)}); r.Server == prefer {
			first = append(first, c)
		} else {
			rest = append(rest, c)
		}
	}
	sort.SliceStable(rest, func(i, j int) bool { return rest[i].free > rest[j].free })
	var order []*Region
	var room []int64
	for _, c := range append(first, rest...) {
		order, room = append(order, c.r), append(room, c.free)
	}
	return order, room
}

// placeWhole tries to place n contiguously in one region (in preference
// order), spilling across regions in stripe-sized chunks, each region
// filled in turn, when no single region fits. room holds the regions'
// free bytes when the order already read them.
func (p *Placer) placeWhole(n int64, order []*Region, room []int64) ([]Chunk, error) {
	if p.MaxChunk <= 0 || n <= p.MaxChunk {
		for _, r := range order {
			var off [1]int64
			if err := r.Mem.Alloc(n, off[:]); err == nil {
				return []Chunk{{Server: r.Server, Offset: off[0], Size: n}}, nil
			}
		}
	}
	if room == nil {
		room = p.rooms(order)
	}
	return p.deal(n, order, room, func(room, sizes []int64) []int {
		plan := make([]int, 0, len(sizes))
		for i := range order {
			for len(plan) < len(sizes) && room[i] >= sizes[len(plan)] {
				room[i] -= sizes[len(plan)]
				plan = append(plan, i)
			}
		}
		return plan
	})
}

// placeStriped deals the chunks round-robin from where the last deal
// stopped, skipping a region that is excluded or full.
func (p *Placer) placeStriped(n int64) ([]Chunk, error) {
	next := p.next
	chunks, err := p.deal(n, p.regions, p.rooms(p.regions), func(room, sizes []int64) []int {
		next = p.next
		plan := make([]int, 0, len(sizes))
		for failures := 0; len(plan) < len(sizes) && failures < len(room); {
			i := next
			next = (next + 1) % len(room)
			if room[i] < sizes[len(plan)] {
				failures++
				continue
			}
			failures = 0
			room[i] -= sizes[len(plan)]
			plan = append(plan, i)
		}
		return plan
	})
	p.next = next
	return chunks, err
}

// rooms reads each region's free bytes once, as 0 for an excluded one.
func (p *Placer) rooms(regions []*Region) []int64 {
	room := make([]int64, len(regions))
	for i, r := range regions {
		if p.usable(r) {
			room[i] = freeBytes(r)
		}
	}
	return room
}

// deal reserves n bytes in stripe-sized chunks, the last one short.
// plan deals the chunks against a copy of room, the regions' free bytes
// read once, and places chunk k on regions[plan[k]]; it places fewer
// than all when the room runs out. grant then asks each region once for
// every chunk the plan gave it. A region whose free bytes overstate
// what it can grant — fragmentation, or an allocation that landed since
// the reading — refuses: the grant is rolled back and the chunks are
// dealt again with that region's room cut below what the plan gave it,
// so it gets at least one chunk fewer. A failed deal holds nothing.
func (p *Placer) deal(n int64, regions []*Region, room []int64, plan func(room, sizes []int64) []int) ([]Chunk, error) {
	sizes := make([]int64, (n+p.stripe-1)/p.stripe)
	for i := range sizes {
		sizes[i] = min(p.stripe, n-int64(i)*p.stripe)
	}
	for {
		at := plan(slices.Clone(room), sizes)
		if len(at) < len(sizes) {
			var short int64
			for _, sz := range sizes[len(at):] {
				short += sz
			}
			return nil, fmt.Errorf("%w: %d bytes short placing %d", ErrNoSpace, short, n)
		}
		chunks, refused := p.grant(regions, at, sizes)
		if refused < 0 {
			return chunks, nil
		}
		var planned int64
		for k, i := range at {
			if i == refused {
				planned += sizes[k]
			}
		}
		room[refused] = planned - 1
	}
}

// grant reserves chunk k of the given sizes on regions[at[k]], with one
// Alloc call per region and chunk size: all or none. It returns the
// index of the region that refused, -1 when none did.
func (p *Placer) grant(regions []*Region, at []int, sizes []int64) ([]Chunk, int) {
	type group struct {
		i    int
		size int64
		ks   []int
	}
	var groups []*group
	for k, i := range at {
		g := slices.IndexFunc(groups, func(g *group) bool { return g.i == i && g.size == sizes[k] })
		if g < 0 {
			g = len(groups)
			groups = append(groups, &group{i: i, size: sizes[k]})
		}
		groups[g].ks = append(groups[g].ks, k)
	}
	chunks := make([]Chunk, len(at))
	for gi, g := range groups {
		r := regions[g.i]
		offs := make([]int64, len(g.ks))
		if r.Mem.Alloc(g.size, offs) != nil {
			var granted []Chunk
			for _, h := range groups[:gi] {
				for _, k := range h.ks {
					granted = append(granted, chunks[k])
				}
			}
			p.rollback(granted)
			return nil, g.i
		}
		for j, k := range g.ks {
			chunks[k] = Chunk{Server: r.Server, Offset: offs[j], Size: g.size}
		}
	}
	return chunks, -1
}

// rollback gives back a refused grant's chunks, one Free call per region.
func (p *Placer) rollback(chunks []Chunk) {
	for _, r := range p.regions {
		var offs []int64
		for _, c := range chunks {
			if c.Server == r.Server {
				offs = append(offs, c.Offset)
			}
		}
		if len(offs) > 0 {
			_ = r.Mem.Free(offs...)
		}
	}
}
