package memnode

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func mustNode(t *testing.T, capacity, shared int64) *Node {
	t.Helper()
	n, err := New("n0", capacity, shared)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// grant asks n for one extent of size bytes.
func grant(n *Node, size int64) (int64, error) {
	var off [1]int64
	err := n.Alloc(size, off[:])
	return off[0], err
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", 0, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New("x", 100, 200); err == nil {
		t.Error("shared > capacity accepted")
	}
	if _, err := New("x", 100, -1); err == nil {
		t.Error("negative shared accepted")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	n := mustNode(t, 1<<20, 1<<20)
	msg := []byte("logical memory pools")
	if err := n.WriteAt(msg, 12345); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := n.ReadAt(got, 12345); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip: got %q", got)
	}
}

func TestReadUnmaterializedIsZero(t *testing.T) {
	n := mustNode(t, 1<<20, 1<<20)
	got := make([]byte, 100)
	got[0] = 0xFF
	if err := n.ReadAt(got, 5000); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %x, want 0", i, b)
		}
	}
	if r := n.ResidentBytes(); r != 0 {
		t.Fatalf("read made %d bytes resident", r)
	}
}

func TestWriteSpanningPages(t *testing.T) {
	n := mustNode(t, 1<<20, 1<<20)
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i % 251)
	}
	off := int64(PageSize - 100)
	if err := n.WriteAt(data, off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := n.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("page-spanning round trip failed")
	}
}

func TestOutOfRange(t *testing.T) {
	n := mustNode(t, 1000, 1000)
	if err := n.WriteAt([]byte{1}, 1000); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write at capacity: %v", err)
	}
	if err := n.ReadAt(make([]byte, 10), 995); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read crossing capacity: %v", err)
	}
	if err := n.ReadAt(make([]byte, 1), -1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative offset: %v", err)
	}
}

// TestRangeCheckDoesNotOverflow walks the boundaries of checkRange. An
// offset near MaxInt64 — the kind that arrives off the wire — must not
// wrap off+len negative and slip through to a slice-bounds panic.
func TestRangeCheckDoesNotOverflow(t *testing.T) {
	n := mustNode(t, 1000, 1000)
	for _, tc := range []struct {
		off  int64
		len  int
		fine bool
	}{
		{0, 0, true},
		{0, 1000, true},
		{999, 1, true},
		{1000, 0, true},
		{0, 1001, false},
		{999, 2, false},
		{1000, 1, false},
		{1001, 0, false},
		{math.MaxInt64 - 5, 10, false},
		{math.MaxInt64, 1, false},
		{math.MaxInt64, 0, false},
		{math.MinInt64, 10, false},
	} {
		p := make([]byte, tc.len)
		if err := n.ReadAt(p, tc.off); (err == nil) != tc.fine || (err != nil && !errors.Is(err, ErrOutOfRange)) {
			t.Errorf("ReadAt(%d bytes, %d): %v, want in range = %t", tc.len, tc.off, err, tc.fine)
		}
		if err := n.WriteAt(p, tc.off); (err == nil) != tc.fine || (err != nil && !errors.Is(err, ErrOutOfRange)) {
			t.Errorf("WriteAt(%d bytes, %d): %v, want in range = %t", tc.len, tc.off, err, tc.fine)
		}
		// A view ends where its range does: an append to it cannot reach
		// the bytes after.
		if v, err := n.View(tc.off, tc.len); (err == nil) != tc.fine || (err != nil && !errors.Is(err, ErrOutOfRange)) ||
			(err == nil && (len(v) != tc.len || cap(v) != tc.len)) {
			t.Errorf("View(%d, %d): len %d cap %d, %v, want in range = %t", tc.off, tc.len, len(v), cap(v), err, tc.fine)
		}
	}
	if _, err := n.View(0, -1); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("View of -1 bytes: %v, want ErrOutOfRange", err)
	}
}

func TestResize(t *testing.T) {
	n := mustNode(t, 100*PageSize, 50*PageSize)
	if err := n.Resize(100 * PageSize); err != nil {
		t.Fatal(err)
	}
	if err := n.Resize(40 * PageSize); err != nil {
		t.Fatal(err)
	}
	if n.SharedBytes() != 40*PageSize || n.Capacity() != 100*PageSize {
		t.Fatalf("shared = %d of %d", n.SharedBytes(), n.Capacity())
	}
}

func TestResizeBounds(t *testing.T) {
	n := mustNode(t, 1000, 500)
	if err := n.Resize(-1); err == nil {
		t.Fatal("negative resize accepted")
	}
	if err := n.Resize(2000); err == nil {
		t.Fatal("resize beyond capacity accepted")
	}
}

func TestDropPage(t *testing.T) {
	n := mustNode(t, 1<<20, 1<<20)
	if err := n.WriteAt([]byte{1, 2, 3}, 7*PageSize); err != nil {
		t.Fatal(err)
	}
	n.dropRange(7*PageSize, PageSize)
	got := make([]byte, 3)
	if err := n.ReadAt(got, 7*PageSize); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0, 0, 0}) {
		t.Fatalf("dropped page still has data: %v", got)
	}
	// The node's only touched page went back to the host (0 is also what
	// a platform that cannot tell reports).
	if r := n.ResidentBytes(); r != 0 {
		t.Fatalf("ResidentBytes = %d after dropping the only written page", r)
	}
	if d := n.DroppedBytes(); d != PageSize {
		t.Fatalf("DroppedBytes = %d, want one page", d)
	}
}

func TestDropRange(t *testing.T) {
	n := mustNode(t, 1<<22, 1<<22)
	// Fill three pages plus the page after the range.
	for p := int64(0); p < 4; p++ {
		if err := n.WriteAt([]byte{byte(p + 1)}, p*PageSize); err != nil {
			t.Fatal(err)
		}
	}
	// Drop exactly pages 1 and 2.
	n.dropRange(PageSize, 2*PageSize)
	got := make([]byte, 1)
	for p := int64(0); p < 4; p++ {
		if err := n.ReadAt(got, p*PageSize); err != nil {
			t.Fatal(err)
		}
		want := byte(p + 1)
		if p == 1 || p == 2 {
			want = 0
		}
		if got[0] != want {
			t.Fatalf("page %d = %d, want %d", p, got[0], want)
		}
	}
}

func TestDropRangeKeepsPartialPages(t *testing.T) {
	n := mustNode(t, 1<<22, 1<<22)
	if err := n.WriteAt([]byte{9}, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.WriteAt([]byte{8}, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	// A range covering only half of each page must not drop either.
	n.dropRange(PageSize/2, 2*PageSize)
	got := make([]byte, 1)
	if err := n.ReadAt(got, 0); err != nil || got[0] != 9 {
		t.Fatalf("partially covered head page dropped: %d %v", got[0], err)
	}
	if err := n.ReadAt(got, 2*PageSize); err != nil || got[0] != 8 {
		t.Fatalf("partially covered tail page dropped: %d %v", got[0], err)
	}
	// Degenerate ranges are no-ops.
	n.dropRange(0, 0)
	n.dropRange(100, -5)
}

// TestDropRangeBounds hands DropRange every way a range can miss the
// node. None may panic (or fault the mapping), and only whole pages
// inside [0, capacity) may lose their contents.
func TestDropRangeBounds(t *testing.T) {
	const pages = 8
	for _, tc := range []struct {
		off, length int64
		dropped     []int // pages expected to read as zeros afterwards
	}{
		{pages * PageSize, PageSize, nil},
		{(pages + 100) * PageSize, PageSize, nil},
		{-PageSize, PageSize, nil},
		{-PageSize, 3 * PageSize, []int{0, 1}},
		{-1, PageSize + 1, []int{0}},
		{6 * PageSize, 100 * PageSize, []int{6, 7}},
		{7*PageSize + 1, math.MaxInt64, nil},
		{0, math.MaxInt64, []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{PageSize, math.MaxInt64, []int{1, 2, 3, 4, 5, 6, 7}},
		{math.MaxInt64, math.MaxInt64, nil},
		{math.MaxInt64 - 5, 10, nil},
		{math.MinInt64, math.MaxInt64, nil},
		{math.MinInt64, math.MinInt64, nil},
		{-5, math.MinInt64, nil},
		{0, -1, nil},
		{math.MinInt64 + 1, math.MaxInt64, nil},
	} {
		n := mustNode(t, pages*PageSize, pages*PageSize)
		for p := int64(0); p < pages; p++ {
			if err := n.WriteAt([]byte{byte(p + 1)}, p*PageSize); err != nil {
				t.Fatal(err)
			}
		}
		n.dropRange(tc.off, tc.length)
		want := map[int]bool{}
		for _, p := range tc.dropped {
			want[p] = true
		}
		got := make([]byte, 1)
		for p := 0; p < pages; p++ {
			if err := n.ReadAt(got, int64(p)*PageSize); err != nil {
				t.Fatal(err)
			}
			if gone := got[0] == 0; gone != want[p] {
				t.Errorf("DropRange(%d, %d): page %d dropped = %t, want %t", tc.off, tc.length, p, gone, want[p])
			}
		}
		if d := n.DroppedBytes(); d != uint64(len(tc.dropped))*PageSize {
			t.Errorf("DropRange(%d, %d): DroppedBytes = %d, want %d pages", tc.off, tc.length, d, len(tc.dropped))
		}
		// Exactly the pages kept are still backed, where the platform
		// can tell (it reports 0 where it cannot).
		if r := n.ResidentBytes(); r != 0 && r != int64(pages-len(tc.dropped))*PageSize {
			t.Errorf("DropRange(%d, %d): ResidentBytes = %d with %d of %d pages kept", tc.off, tc.length, r, pages-len(tc.dropped), pages)
		}
	}
}

// A capacity that is not a whole number of pages keeps its partial last
// page out of every drop, and stays addressable to its last byte.
func TestDropRangeOddCapacity(t *testing.T) {
	n := mustNode(t, 2*PageSize+100, 2*PageSize+100)
	if err := n.WriteAt([]byte{7}, 2*PageSize+99); err != nil {
		t.Fatal(err)
	}
	if err := n.WriteAt([]byte{7}, 0); err != nil {
		t.Fatal(err)
	}
	n.dropRange(0, math.MaxInt64)
	got := make([]byte, 1)
	if err := n.ReadAt(got, 2*PageSize+99); err != nil || got[0] != 7 {
		t.Fatalf("partial last page: %d %v", got[0], err)
	}
	if err := n.ReadAt(got, 0); err != nil || got[0] != 0 {
		t.Fatalf("whole first page: %d %v", got[0], err)
	}
}

// TestResizeShrinkDropsTail: the tail a shrink vacates reads as zeros
// when the region grows back over it.
func TestResizeShrinkDropsTail(t *testing.T) {
	n := mustNode(t, 16*PageSize, 16*PageSize)
	for p := int64(0); p < 16; p++ {
		if err := n.WriteAt([]byte{byte(p + 1)}, p*PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Resize(4 * PageSize); err != nil {
		t.Fatal(err)
	}
	if err := n.Resize(16 * PageSize); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1)
	for p := int64(0); p < 16; p++ {
		if err := n.ReadAt(got, p*PageSize); err != nil {
			t.Fatal(err)
		}
		want := byte(p + 1)
		if p >= 4 {
			want = 0
		}
		if got[0] != want {
			t.Fatalf("page %d = %d after shrink and regrow, want %d", p, got[0], want)
		}
	}
}

// TestReadWriteAllocFree: no access size allocates, in particular not
// one that spans what used to be a 2MiB chunk boundary, and neither does
// dropping a range.
func TestReadWriteAllocFree(t *testing.T) {
	n := mustNode(t, 8<<20, 8<<20)
	const boundary = 2 << 20
	for _, size := range []int{64, PageSize, 256 << 10} {
		p := make([]byte, size)
		off := int64(boundary - size/2)
		if a := testing.AllocsPerRun(20, func() {
			if err := n.WriteAt(p, off); err != nil {
				t.Fatal(err)
			}
			if err := n.ReadAt(p, off); err != nil {
				t.Fatal(err)
			}
			n.dropRange(off, int64(size))
		}); a != 0 {
			t.Errorf("%d-byte write+read+drop across the 2MiB line: %v allocs", size, a)
		}
	}
}

func TestConcurrentReadWrite(t *testing.T) {
	n := mustNode(t, 1<<22, 1<<22)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 128)
			for i := range buf {
				buf[i] = byte(g)
			}
			off := int64(g) * 64 * PageSize
			for i := 0; i < 100; i++ {
				if err := n.WriteAt(buf, off); err != nil {
					t.Error(err)
					return
				}
				got := make([]byte, 128)
				if err := n.ReadAt(got, off); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, buf) {
					t.Errorf("goroutine %d read %d", g, got[0])
					return
				}
			}
		}()
	}
	wg.Wait()
	// Eight goroutines touched a page each and nothing was dropped.
	if r := n.ResidentBytes(); r != 0 && r < 8*PageSize {
		t.Errorf("ResidentBytes = %d after writes to 8 pages", r)
	}
}

// Property: what you write is what you read back, for arbitrary offsets and
// contents within capacity.
func TestReadWriteProperty(t *testing.T) {
	n := mustNode(t, 1<<20, 1<<20)
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		o := int64(off) * 7 % (1<<20 - int64(len(data)))
		if o < 0 {
			o = 0
		}
		if err := n.WriteAt(data, o); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := n.ReadAt(got, o); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
