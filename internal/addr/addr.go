// Package addr is the vocabulary of the LMP global address space and of
// the paper's two-step translation scheme (§5 "Address translation"): a
// logical address resolves at slice granularity to an owning server (the
// coarse step, a map every server replicates) and then, at the owner, to
// a physical offset (the fine step). Because sharing and migration happen
// at slice granularity, migrating a buffer re-binds its slices to a new
// owner without changing any logical address.
//
// The package holds the types and the slice arithmetic; the translation
// state itself is the pool's slice table (core.Pool.Translate), one entry
// per slice carrying both steps. FlatDirectory is the model-level baseline
// §5 argues against, kept for the ablation.
package addr

import (
	"errors"
	"fmt"
)

// Logical is an address in the pool's global address space.
type Logical uint64

// ServerID identifies a server participating in the pool.
type ServerID int

// NoServer marks an unmapped slice.
const NoServer ServerID = -1

// SliceShift selects the coarse-map granularity: 2MiB slices, large enough
// that the replicated coarse map for a 100TB pool stays a few hundred MB.
const SliceShift = 21

// SliceSize is the coarse translation granularity in bytes.
const SliceSize = 1 << SliceShift

// SliceOf returns the slice index containing a.
func SliceOf(a Logical) uint64 { return uint64(a) >> SliceShift }

// SliceBase returns the first logical address of slice s.
func SliceBase(s uint64) Logical { return Logical(s << SliceShift) }

// Range is a contiguous span of logical addresses.
type Range struct {
	Start Logical
	Size  int64
}

// End reports the first address past the range.
func (r Range) End() Logical { return r.Start + Logical(r.Size) }

// Contains reports whether a lies in the range.
func (r Range) Contains(a Logical) bool { return a >= r.Start && a < r.End() }

// Overlaps reports whether two ranges intersect.
func (r Range) Overlaps(o Range) bool { return r.Start < o.End() && o.Start < r.End() }

func (r Range) String() string { return fmt.Sprintf("[%#x,%#x)", uint64(r.Start), uint64(r.End())) }

// Location is the physical side of a translation: a server and a byte
// offset within that server's shared region.
type Location struct {
	Server ServerID
	Offset int64
}

// ErrUnmapped reports a translation of an address no server owns.
var ErrUnmapped = errors.New("addr: logical address is unmapped")
