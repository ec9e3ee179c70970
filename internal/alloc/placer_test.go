package alloc

import (
	"errors"
	"testing"

	"github.com/lmp-project/lmp/internal/addr"
)

// extentsRegion is a bare allocator as a placer's region, as a lender
// with no memory behind it would be.
type extentsRegion struct{ *Extents }

func (r extentsRegion) Free(off int64) (int64, error) {
	n, _, _, err := r.Extents.Free(off)
	return n, err
}

func testRegions(t *testing.T, n int, size int64) []*Region {
	t.Helper()
	var rs []*Region
	for i := 0; i < n; i++ {
		b, err := NewExtents(size, 64)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, &Region{Server: addr.ServerID(i), Mem: extentsRegion{b}})
	}
	return rs
}

func mustPlacer(t *testing.T, p Policy, stripe int64, rs []*Region) *Placer {
	t.Helper()
	pl, err := NewPlacer(p, stripe, rs...)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func totalSize(chunks []Chunk) int64 {
	var s int64
	for _, c := range chunks {
		s += c.Size
	}
	return s
}

func TestNewPlacerValidation(t *testing.T) {
	if _, err := NewPlacer(FirstFit, 64); err == nil {
		t.Error("empty placer accepted")
	}
	rs := testRegions(t, 1, 1024)
	if _, err := NewPlacer(FirstFit, 0, rs...); err == nil {
		t.Error("zero stripe accepted")
	}
}

func TestFirstFitPacksFirstRegion(t *testing.T) {
	rs := testRegions(t, 3, 1024)
	pl := mustPlacer(t, FirstFit, 64, rs)
	for i := 0; i < 3; i++ {
		chunks, err := pl.Place(256, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunks) != 1 || chunks[0].Server != 0 {
			t.Fatalf("chunks = %+v, want single chunk on server 0", chunks)
		}
	}
}

func TestRoundRobinRotates(t *testing.T) {
	rs := testRegions(t, 3, 1024)
	pl := mustPlacer(t, RoundRobin, 64, rs)
	seen := map[addr.ServerID]int{}
	for i := 0; i < 6; i++ {
		chunks, err := pl.Place(128, 0)
		if err != nil {
			t.Fatal(err)
		}
		seen[chunks[0].Server]++
	}
	for s, n := range seen {
		if n != 2 {
			t.Fatalf("server %d got %d placements, want 2 (%v)", s, n, seen)
		}
	}
}

func TestLocalityAwarePrefersRequester(t *testing.T) {
	rs := testRegions(t, 3, 1024)
	pl := mustPlacer(t, LocalityAware, 64, rs)
	chunks, err := pl.Place(512, 2)
	if err != nil {
		t.Fatal(err)
	}
	if chunks[0].Server != 2 {
		t.Fatalf("placed on %d, want preferred server 2", chunks[0].Server)
	}
	// Exhaust server 2; next placement falls elsewhere.
	if _, err := pl.Place(512, 2); err != nil {
		t.Fatal(err)
	}
	chunks, err = pl.Place(512, 2)
	if err != nil {
		t.Fatal(err)
	}
	if chunks[0].Server == 2 {
		t.Fatal("placed on full preferred server")
	}
}

func TestStripedSpreadsChunks(t *testing.T) {
	rs := testRegions(t, 4, 1024)
	pl := mustPlacer(t, Striped, 64, rs)
	chunks, err := pl.Place(512, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 8 {
		t.Fatalf("got %d chunks, want 8 stripes", len(chunks))
	}
	if totalSize(chunks) != 512 {
		t.Fatalf("total = %d", totalSize(chunks))
	}
	perServer := map[addr.ServerID]int{}
	for _, c := range chunks {
		perServer[c.Server]++
	}
	for s, n := range perServer {
		if n != 2 {
			t.Fatalf("server %d has %d stripes, want 2", s, n)
		}
	}
}

func TestSpillAcrossRegions(t *testing.T) {
	// No single region can hold 1536, but two can.
	rs := testRegions(t, 2, 1024)
	pl := mustPlacer(t, FirstFit, 256, rs)
	chunks, err := pl.Place(1536, 0)
	if err != nil {
		t.Fatal(err)
	}
	if totalSize(chunks) != 1536 {
		t.Fatalf("total = %d", totalSize(chunks))
	}
	servers := map[addr.ServerID]bool{}
	for _, c := range chunks {
		servers[c.Server] = true
	}
	if len(servers) != 2 {
		t.Fatalf("spill used %d servers, want 2", len(servers))
	}
}

func TestPlaceFailureRollsBack(t *testing.T) {
	rs := testRegions(t, 2, 1024)
	pl := mustPlacer(t, FirstFit, 64, rs)
	if _, err := pl.Place(4096, 0); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("expected ErrNoSpace, got %v", err)
	}
	if pl.TotalFree() != 2048 {
		t.Fatalf("rollback incomplete: free = %d, want 2048", pl.TotalFree())
	}
}

func TestStripedFailureRollsBack(t *testing.T) {
	rs := testRegions(t, 2, 256)
	pl := mustPlacer(t, Striped, 64, rs)
	if _, err := pl.Place(1024, 0); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("expected ErrNoSpace, got %v", err)
	}
	if pl.TotalFree() != 512 {
		t.Fatalf("rollback incomplete: free = %d", pl.TotalFree())
	}
}

// TestReleaseReturnsSpace frees a placement the way its holder does,
// chunk by chunk through each chunk's region: every chunk is exactly one
// extent of its region, so the regions end up as they started.
func TestReleaseReturnsSpace(t *testing.T) {
	rs := testRegions(t, 3, 1024)
	pl := mustPlacer(t, Striped, 64, rs)
	chunks, err := pl.Place(960, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if n, err := rs[c.Server].Mem.Free(c.Offset); err != nil || n != c.Size {
			t.Fatalf("free of chunk %+v: %d bytes, %v", c, n, err)
		}
	}
	if pl.TotalFree() != 3*1024 {
		t.Fatalf("free after release = %d", pl.TotalFree())
	}
}

func TestPlaceNonPositive(t *testing.T) {
	rs := testRegions(t, 1, 1024)
	pl := mustPlacer(t, FirstFit, 64, rs)
	if _, err := pl.Place(0, 0); err == nil {
		t.Fatal("zero place accepted")
	}
}

func TestPolicyStrings(t *testing.T) {
	for p, want := range map[Policy]string{
		FirstFit: "first-fit", RoundRobin: "round-robin",
		LocalityAware: "locality-aware", Striped: "striped",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", int(p), p.String())
		}
	}
}

// The Figure 5 scenario in allocator terms: a 96-unit working set fits the
// logical pool (4 x 32-unit regions) but not the physical pool (64-unit
// device), with sizes scaled down by 2^25.
func TestFig5FeasibilityShape(t *testing.T) {
	logical := testRegions(t, 4, 32*64) // 4 servers x 32 blocks
	lp := mustPlacer(t, Striped, 64, logical)
	if _, err := lp.Place(96*64, 0); err != nil {
		t.Fatalf("logical pool could not place the 96-unit vector: %v", err)
	}

	physical := testRegions(t, 1, 64*64) // one 64-unit pool device
	pp := mustPlacer(t, FirstFit, 64, physical)
	if _, err := pp.Place(96*64, 0); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("physical pool placed an impossible vector: %v", err)
	}
}
