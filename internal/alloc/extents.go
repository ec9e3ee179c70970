// Package alloc provides the pool's allocation algorithms: Extents, the
// first-fit extent allocator a lender (memnode.Node, its one holder) runs
// over its shared region, and a Placer that spreads allocations across
// lenders under a placement policy. Allocation failure is how the runtime
// reports the paper's Figure 5 infeasibility: a physical pool — a pool
// whose one lender is the device — smaller than the working set cannot
// place it, while a logical pool can grow its shared regions and succeed.
package alloc

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoSpace reports an allocation that cannot be satisfied.
var ErrNoSpace = errors.New("alloc: out of space")

// ErrNotAllocated reports a free of an unknown offset.
var ErrNotAllocated = errors.New("alloc: offset not allocated")

// Extents is a first-fit extent allocator over [0, Limit) in multiples of
// a unit. It handles arbitrary (non-power-of-two) region sizes and
// supports growing and shrinking the limit at runtime — the shape of an
// LMP shared region, whose size follows the sizing policy. It is the
// algorithm only and takes no lock: memnode.Node holds it under its
// allocation lock, which is also what orders a freed extent's scrub before
// its next grant.
type Extents struct {
	unit int64

	limit     int64
	free      []extent // sorted by offset, coalesced
	allocated map[int64]int64
	inUse     int64
}

type extent struct{ off, size int64 }

// NewExtents returns an allocator over [0, limit) with the given unit.
// limit must be a non-negative multiple of unit.
func NewExtents(limit, unit int64) (*Extents, error) {
	if unit <= 0 {
		return nil, fmt.Errorf("alloc: unit %d must be positive", unit)
	}
	if limit < 0 || limit%unit != 0 {
		return nil, fmt.Errorf("alloc: limit %d must be a non-negative multiple of %d", limit, unit)
	}
	e := &Extents{unit: unit, limit: limit, allocated: make(map[int64]int64)}
	if limit > 0 {
		e.free = []extent{{0, limit}}
	}
	return e, nil
}

// InUse reports allocated bytes.
func (e *Extents) InUse() int64 {
	return e.inUse
}

// FreeBytes reports unallocated capacity.
func (e *Extents) FreeBytes() int64 {
	return e.limit - e.inUse
}

// Alloc reserves n bytes (rounded up to the unit) and returns the offset.
func (e *Extents) Alloc(n int64) (int64, error) {
	if n <= 0 || n > math.MaxInt64-e.unit {
		// The upper bound keeps the rounding below from wrapping negative
		// (a size that came off the wire), which would pass the fit test
		// and subtract from inUse.
		return 0, fmt.Errorf("alloc: allocation of %d bytes", n)
	}
	n = (n + e.unit - 1) / e.unit * e.unit
	for i := range e.free {
		if e.free[i].size < n {
			continue
		}
		off := e.free[i].off
		e.free[i].off += n
		e.free[i].size -= n
		if e.free[i].size == 0 {
			e.free = append(e.free[:i], e.free[i+1:]...)
		}
		e.allocated[off] = n
		e.inUse += n
		return off, nil
	}
	return 0, fmt.Errorf("%w: need %d contiguous bytes", ErrNoSpace, n)
}

// Granted reports whether offset is the start of a live allocation.
func (e *Extents) Granted(offset int64) bool {
	_, ok := e.allocated[offset]
	return ok
}

// Free releases the allocation at offset and reports its length, so the
// owner of the memory can scrub exactly what was handed back, and the
// free range [lo, hi) the allocation joined, its free neighbours
// included.
func (e *Extents) Free(offset int64) (n, lo, hi int64, err error) {
	n, ok := e.allocated[offset]
	if !ok {
		return 0, 0, 0, fmt.Errorf("%w: %d", ErrNotAllocated, offset)
	}
	delete(e.allocated, offset)
	e.inUse -= n
	x := e.insertFree(extent{offset, n})
	return n, x.off, x.off + x.size, nil
}

// insertFree adds an extent, coalesces neighbours and returns the free
// extent it became part of.
func (e *Extents) insertFree(x extent) extent {
	i := sort.Search(len(e.free), func(i int) bool { return e.free[i].off > x.off })
	e.free = append(e.free, extent{})
	copy(e.free[i+1:], e.free[i:])
	e.free[i] = x
	// Coalesce with next.
	if i+1 < len(e.free) && e.free[i].off+e.free[i].size == e.free[i+1].off {
		e.free[i].size += e.free[i+1].size
		e.free = append(e.free[:i+1], e.free[i+2:]...)
	}
	// Coalesce with previous.
	if i > 0 && e.free[i-1].off+e.free[i-1].size == e.free[i].off {
		e.free[i-1].size += e.free[i].size
		e.free = append(e.free[:i], e.free[i+1:]...)
		i--
	}
	return e.free[i]
}

// SetLimit grows or shrinks the managed region. Shrinking requires the
// tail [newLimit, limit) to be completely free.
func (e *Extents) SetLimit(newLimit int64) error {
	if newLimit < 0 || newLimit%e.unit != 0 {
		return fmt.Errorf("alloc: limit %d must be a non-negative multiple of %d", newLimit, e.unit)
	}
	switch {
	case newLimit == e.limit:
		return nil
	case newLimit > e.limit:
		e.insertFree(extent{e.limit, newLimit - e.limit})
		e.limit = newLimit
		return nil
	default:
		// The tail must be one free extent reaching exactly to limit.
		if len(e.free) > 0 {
			last := &e.free[len(e.free)-1]
			if last.off <= newLimit && last.off+last.size == e.limit {
				cut := e.limit - newLimit
				if last.size >= cut {
					last.size -= cut
					if last.size == 0 {
						e.free = e.free[:len(e.free)-1]
					}
					e.limit = newLimit
					return nil
				}
			}
		}
		return fmt.Errorf("%w: tail [%d,%d) is not free", ErrNoSpace, newLimit, e.limit)
	}
}

// FragmentCount reports the number of free extents (a fragmentation
// indicator).
func (e *Extents) FragmentCount() int {
	return len(e.free)
}
