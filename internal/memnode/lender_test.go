package memnode

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"github.com/lmp-project/lmp/internal/alloc"
)

// The lender contract, once: every holder of a Node — core.Pool, lmpd,
// the physical-pool device — gets these rules from the Node, so this is
// where they are tested.

// books is what a refused operation must leave unchanged.
type books struct{ shared, inUse, free int64 }

func booksOf(n *Node) books { return books{n.SharedBytes(), n.InUse(), n.FreeBytes()} }

// TestFreedExtentReadsZeros: alloc → write → free → the same offset is
// granted again and reads zeros, with the dropped bytes counted.
func TestFreedExtentReadsZeros(t *testing.T) {
	n := mustNode(t, 1<<20, 1<<20)
	const size = 5*PageSize - 100 // grants round up to pages
	off, err := grant(n, size)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.InUse(); got != 5*PageSize {
		t.Fatalf("InUse = %d after a %d-byte grant, want 5 pages", got, size)
	}
	secret := bytes.Repeat([]byte("tenant-A-secret "), 5*PageSize/16)
	if err := n.WriteAt(secret, off); err != nil {
		t.Fatal(err)
	}
	if err := n.Free(off); err != nil {
		t.Fatal(err)
	}
	if n.DroppedBytes() != 5*PageSize || n.InUse() != 0 || n.FreeBytes() != 1<<20 {
		t.Fatalf("after the free: dropped %d, in use %d, free %d", n.DroppedBytes(), n.InUse(), n.FreeBytes())
	}
	again, err := grant(n, size)
	if err != nil || again != off {
		t.Fatalf("re-grant at %d (%v), want the freed offset %d", again, err, off)
	}
	got := make([]byte, len(secret))
	if err := n.ReadAt(got, again); err != nil {
		t.Fatal(err)
	}
	if i := bytes.IndexFunc(got, func(r rune) bool { return r != 0 }); i >= 0 {
		t.Fatalf("next tenant reads %q at byte %d, want zeros", got[i:i+16], i)
	}
}

// TestBatchGrantAndFree: one Alloc grants k extents in first-fit order,
// as k calls one after the other would, and one Free takes them all back.
func TestBatchGrantAndFree(t *testing.T) {
	n := mustNode(t, 64*PageSize, 32*PageSize)
	offs := make([]int64, 4)
	if err := n.Alloc(3*PageSize, offs); err != nil {
		t.Fatal(err)
	}
	for i, off := range offs {
		if off != int64(i)*3*PageSize {
			t.Fatalf("extent %d at %d, want %d", i, off, int64(i)*3*PageSize)
		}
	}
	if n.InUse() != 12*PageSize {
		t.Fatalf("InUse = %d after four 3-page grants", n.InUse())
	}
	if err := n.Free(offs...); err != nil {
		t.Fatal(err)
	}
	if n.InUse() != 0 || n.DroppedBytes() != 12*PageSize {
		t.Fatalf("after the free: in use %d, dropped %d", n.InUse(), n.DroppedBytes())
	}
}

// TestLenderRefusalsChangeNothing: a free of an offset that is not a live
// extent, an oversized grant, and a resize below use or outside the node
// are refused with the books as they were and the tenant's bytes intact.
func TestLenderRefusalsChangeNothing(t *testing.T) {
	n := mustNode(t, 64*PageSize, 32*PageSize)
	low, err := grant(n, 4*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	high, err := grant(n, 20*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Free(low); err != nil { // leaves [high, high+20 pages) pinning the tail
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xC3}, 20*PageSize)
	if err := n.WriteAt(data, high); err != nil {
		t.Fatal(err)
	}
	before, dropped := booksOf(n), n.DroppedBytes()
	for name, op := range map[string]func() error{
		"free of a freed offset":     func() error { return n.Free(low) },
		"free inside a live extent":  func() error { return n.Free(high + PageSize) },
		"free outside the region":    func() error { return n.Free(48 * PageSize) },
		"free of a negative offset":  func() error { return n.Free(-PageSize) },
		"grant larger than is free":  func() error { _, err := grant(n, 9*PageSize); return err },
		"grant of nothing":           func() error { _, err := grant(n, 0); return err },
		"grant of no extents":        func() error { return n.Alloc(PageSize, nil) },
		"grants past what is free":   func() error { return n.Alloc(5*PageSize, make([]int64, 3)) },
		"free of a live and a freed": func() error { return n.Free(high, low) },
		"free of one extent twice":   func() error { return n.Free(high, high) },
		"shrink below a live extent": func() error { return n.Resize(8 * PageSize) },
		"shrink into a live extent":  func() error { return n.Resize(high + PageSize) },
		"shrink to nothing":          func() error { return n.Resize(0) },
		"grow past the node":         func() error { return n.Resize(65 * PageSize) },
		"negative boundary":          func() error { return n.Resize(-1) },
	} {
		if err := op(); err == nil {
			t.Errorf("%s accepted", name)
		}
		if got := booksOf(n); got != before || n.DroppedBytes() != dropped {
			t.Errorf("%s changed the books: %+v -> %+v, dropped %d -> %d", name, before, got, dropped, n.DroppedBytes())
		}
	}
	if err := n.Free(low); !errors.Is(err, alloc.ErrNotAllocated) {
		t.Errorf("double free: %v, want ErrNotAllocated", err)
	}
	if err := n.Resize(8 * PageSize); !errors.Is(err, alloc.ErrNoSpace) {
		t.Errorf("shrink below use: %v, want ErrNoSpace", err)
	}
	got := make([]byte, len(data))
	if err := n.ReadAt(got, high); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("a refused operation touched the live extent (%v)", err)
	}
}

// TestResizeMovesOneBoundary: grants stop at the boundary, a grow opens
// room, a shrink to the end of the last extent is allowed, and a size
// that is not whole pages is rounded down.
func TestResizeMovesOneBoundary(t *testing.T) {
	n := mustNode(t, 64*PageSize, 8*PageSize+100)
	if n.SharedBytes() != 8*PageSize {
		t.Fatalf("shared %d: want the boundary rounded down to 8 pages", n.SharedBytes())
	}
	a, err := grant(n, 8*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := grant(n, PageSize); !errors.Is(err, alloc.ErrNoSpace) {
		t.Fatalf("grant past the boundary: %v", err)
	}
	if err := n.Resize(16*PageSize + PageSize/2); err != nil {
		t.Fatal(err)
	}
	if got := booksOf(n); got != (books{16 * PageSize, 8 * PageSize, 8 * PageSize}) {
		t.Fatalf("after the grow: %+v", got)
	}
	b, err := grant(n, PageSize)
	if err != nil || b != a+8*PageSize {
		t.Fatalf("grant in the new room at %d (%v)", b, err)
	}
	if err := n.Resize(9 * PageSize); err != nil {
		t.Fatalf("shrink to the end of the last extent: %v", err)
	}
	if got := booksOf(n); got != (books{9 * PageSize, 9 * PageSize, 0}) {
		t.Fatalf("after the shrink: %+v", got)
	}
}

// TestConcurrentTenants: tenants alloc, fill their extent with their own
// mark, verify it, and free, all at once (run it under -race). Whatever a
// tenant finds in a fresh extent is zeros, never a neighbour's or a
// predecessor's mark, and its own bytes are intact when it leaves — so no
// extent was ever granted twice and none was granted before its scrub.
// Every eighth extent spans whole huge pages, which the node populates
// while its tenant writes, verifies and frees it: a populate never
// clobbers a tenant's bytes, and when the last tenant has left nothing
// is resident.
func TestConcurrentTenants(t *testing.T) {
	const tenants, rounds = 8, 200
	n := mustNode(t, 16<<20, 8<<20)
	var wg sync.WaitGroup
	for g := 1; g <= tenants; g++ {
		wg.Add(1)
		go func(mark byte) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				size := int64(1+(r+int(mark))%6) * PageSize
				if r%8 == 0 {
					size = 2 * hugePage // holds at least one whole huge page
				}
				off, err := grant(n, size)
				if errors.Is(err, alloc.ErrNoSpace) {
					continue // the others hold the region just now
				}
				if err != nil {
					t.Error(err)
					return
				}
				buf := make([]byte, size)
				if err := n.ReadAt(buf, off); err != nil {
					t.Error(err)
					return
				}
				if i := bytes.IndexFunc(buf, func(r rune) bool { return r != 0 }); i >= 0 {
					t.Errorf("tenant %d was granted [%d,+%d) holding tenant %d's bytes", mark, off, size, buf[i])
					return
				}
				for i := range buf {
					buf[i] = mark
				}
				if err := n.WriteAt(buf, off); err != nil {
					t.Error(err)
					return
				}
				if r%16 == 0 {
					// The boundary moves under the tenants' feet; a shrink
					// that would cut a live extent is refused.
					_ = n.Resize(int64(1+r/16%2) << 22)
				}
				if err := n.ReadAt(buf, off); err != nil {
					t.Error(err)
					return
				}
				if i := bytes.IndexFunc(buf, func(r rune) bool { return byte(r) != mark }); i >= 0 {
					t.Errorf("tenant %d's extent [%d,+%d) holds %d at byte %d", mark, off, size, buf[i], i)
					return
				}
				if err := n.Free(off); err != nil {
					t.Error(err)
					return
				}
			}
		}(byte(g))
	}
	wg.Wait()
	if n.InUse() != 0 {
		t.Fatalf("%d bytes still granted after every tenant left", n.InUse())
	}
	if r := n.ResidentBytes(); r > n.InUse() {
		t.Fatalf("%d KiB resident after every tenant left", r>>10)
	}
}
