package alloc

import (
	"errors"
	"math/rand"
	"testing"

	addrpkg "github.com/lmp-project/lmp/internal/addr"
)

func mustExtents(t *testing.T, limit, unit int64) *Extents {
	t.Helper()
	e, err := NewExtents(limit, unit)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewExtentsValidation(t *testing.T) {
	if _, err := NewExtents(100, 0); err == nil {
		t.Error("zero unit accepted")
	}
	if _, err := NewExtents(100, 64); err == nil {
		t.Error("unaligned limit accepted")
	}
	if _, err := NewExtents(-64, 64); err == nil {
		t.Error("negative limit accepted")
	}
	if _, err := NewExtents(0, 64); err != nil {
		t.Error("empty region rejected")
	}
}

func TestExtentsAllocFreeRoundsToUnit(t *testing.T) {
	e := mustExtents(t, 1024, 64)
	off, err := e.Alloc(100) // rounds to 128
	if err != nil {
		t.Fatal(err)
	}
	if e.InUse() != 128 {
		t.Fatalf("in use = %d", e.InUse())
	}
	if _, _, _, err := e.Free(off); err != nil {
		t.Fatal(err)
	}
	if e.InUse() != 0 || e.FreeBytes() != 1024 {
		t.Fatalf("after free: inUse=%d free=%d", e.InUse(), e.FreeBytes())
	}
	if _, _, _, err := e.Free(off); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("double free: %v", err)
	}
}

func TestExtentsNonPowerOfTwoRegion(t *testing.T) {
	// 24 "GB" scaled: 3 * 2^something — non-power-of-two limits work.
	e := mustExtents(t, 3*64, 64)
	var offs []int64
	for i := 0; i < 3; i++ {
		off, err := e.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	if _, err := e.Alloc(64); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("over-alloc: %v", err)
	}
	for _, o := range offs {
		if _, _, _, err := e.Free(o); err != nil {
			t.Fatal(err)
		}
	}
	if e.FragmentCount() != 1 {
		t.Fatalf("fragments after coalesce = %d, want 1", e.FragmentCount())
	}
}

func TestExtentsCoalescing(t *testing.T) {
	e := mustExtents(t, 4*64, 64)
	a, _ := e.Alloc(64)
	b, _ := e.Alloc(64)
	c, _ := e.Alloc(64)
	// Free middle, then neighbours: must coalesce into one extent plus the
	// untouched tail, and each free reports the free range it joined.
	for _, step := range []struct{ off, lo, hi int64 }{
		{b, 64, 128},   // between two live extents
		{a, 0, 128},    // joins b's range from below
		{c, 0, 4 * 64}, // joins both ranges, and the tail
	} {
		n, lo, hi, err := e.Free(step.off)
		if err != nil {
			t.Fatal(err)
		}
		if n != 64 || lo != step.lo || hi != step.hi {
			t.Fatalf("Free(%d) = %d bytes in [%d,%d), want 64 in [%d,%d)", step.off, n, lo, hi, step.lo, step.hi)
		}
	}
	if e.FragmentCount() != 1 {
		t.Fatalf("fragments = %d, want 1", e.FragmentCount())
	}
	if _, err := e.Alloc(4 * 64); err != nil {
		t.Fatalf("full alloc after coalesce: %v", err)
	}
}

func TestExtentsGrow(t *testing.T) {
	e := mustExtents(t, 128, 64)
	if _, err := e.Alloc(128); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Alloc(64); !errors.Is(err, ErrNoSpace) {
		t.Fatal("full region allocated")
	}
	if err := e.SetLimit(256); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Alloc(128); err != nil {
		t.Fatalf("alloc after grow: %v", err)
	}
}

func TestExtentsShrink(t *testing.T) {
	e := mustExtents(t, 256, 64)
	off, _ := e.Alloc(64)
	// Tail [64,256) is free: shrink to 128 works.
	if err := e.SetLimit(128); err != nil {
		t.Fatal(err)
	}
	if e.FreeBytes() != 64 {
		t.Fatalf("free after shrink = %d", e.FreeBytes())
	}
	// Shrinking below the allocation fails.
	if err := e.SetLimit(0); err == nil {
		t.Fatal("shrink through allocation accepted")
	}
	if _, _, _, err := e.Free(off); err != nil {
		t.Fatal(err)
	}
	if err := e.SetLimit(0); err != nil {
		t.Fatalf("shrink to zero after free: %v", err)
	}
	if err := e.SetLimit(100); err == nil {
		t.Fatal("unaligned limit accepted")
	}
}

func TestExtentsShrinkWithFragmentedTail(t *testing.T) {
	e := mustExtents(t, 4*64, 64)
	a, _ := e.Alloc(64) // [0,64)
	b, _ := e.Alloc(64) // [64,128)
	_ = a
	if _, _, _, err := e.Free(b); err != nil {
		t.Fatal(err)
	}
	// Free extents: [64,128) and [128,256). They coalesce to [64,256), so
	// shrinking to 64 is possible.
	if err := e.SetLimit(64); err != nil {
		t.Fatalf("shrink to fragmented-but-coalesced tail: %v", err)
	}
	if size := e.InUse() + e.FreeBytes(); size != 64 {
		t.Fatalf("size = %d", size)
	}
}

func TestExtentsRandomizedInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := mustExtents(t, 1<<16, 64)
	type blk struct{ off, size int64 }
	var live []blk
	for step := 0; step < 3000; step++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			n := int64(64 * (1 + rng.Intn(8)))
			off, err := e.Alloc(n)
			if errors.Is(err, ErrNoSpace) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range live {
				if off < l.off+l.size && l.off < off+n {
					t.Fatalf("overlap at step %d", step)
				}
			}
			live = append(live, blk{off, n})
		} else {
			i := rng.Intn(len(live))
			if _, _, _, err := e.Free(live[i].off); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		}
		var used int64
		for _, l := range live {
			used += l.size
		}
		if e.InUse() != used {
			t.Fatalf("inUse=%d, want %d", e.InUse(), used)
		}
	}
}

func TestPlacerWithExtentsAndMaxChunk(t *testing.T) {
	// The core runtime's configuration: extent regions, MaxChunk = stripe.
	var rs []*Region
	for i := 0; i < 3; i++ {
		rs = append(rs, &Region{Server: addrpkg.ServerID(i), Mem: extentsRegion{mustExtents(t, 8*64, 64)}})
	}
	pl := mustPlacer(t, LocalityAware, 64, rs)
	pl.MaxChunk = 64
	chunks, err := pl.Place(5*64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 5 {
		t.Fatalf("chunks = %d, want 5 slice-sized pieces", len(chunks))
	}
	for _, c := range chunks {
		if c.Size != 64 {
			t.Fatalf("chunk size = %d, want 64", c.Size)
		}
		if c.Server != 1 {
			t.Fatalf("chunk on %d, want preferred server 1", c.Server)
		}
	}
}
