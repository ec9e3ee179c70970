package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/coherence"
)

func coherenceNode(s int) coherence.NodeID { return coherence.NodeID(s) }

// testPool builds a 4-server pool, each server with 16 slices of DRAM all
// shared (a scaled-down paper deployment).
func testPool(t *testing.T, placement alloc.Policy) *Pool {
	t.Helper()
	cfg := Config{Placement: placement}
	for i := 0; i < 4; i++ {
		cfg.Servers = append(cfg.Servers, ServerConfig{
			Name:        "srv",
			Capacity:    16 * SliceSize,
			SharedBytes: 16 * SliceSize,
		})
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Servers: []ServerConfig{{Capacity: 0}}}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(Config{Servers: []ServerConfig{{Capacity: 10, SharedBytes: 20}}}); err == nil {
		t.Error("oversharing accepted")
	}
}

func TestAllocReadWriteRoundTrip(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	b, err := p.Alloc(3*SliceSize+100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Size() != 3*SliceSize+100 {
		t.Fatalf("size = %d", b.Size())
	}
	if b.Range().Size != 4*SliceSize {
		t.Fatalf("rounded range = %d", b.Range().Size)
	}
	msg := []byte("stable logical addresses")
	// Write spanning a slice boundary.
	la := b.Addr() + addr.Logical(SliceSize-10)
	if err := p.Write(1, la, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := p.Read(2, la, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip: %q", got)
	}
}

func TestLocalityAwarePlacementIsLocal(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	b, err := p.Alloc(4*SliceSize, 2)
	if err != nil {
		t.Fatal(err)
	}
	for off := int64(0); off < 4; off++ {
		owner, err := p.OwnerOf(b.Addr() + addr.Logical(off*SliceSize))
		if err != nil {
			t.Fatal(err)
		}
		if owner != 2 {
			t.Fatalf("slice %d on server %d, want 2", off, owner)
		}
	}
}

func TestStripedPlacementSpreads(t *testing.T) {
	p := testPool(t, alloc.Striped)
	b, err := p.Alloc(8*SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	owners := map[addr.ServerID]int{}
	for off := int64(0); off < 8; off++ {
		owner, err := p.OwnerOf(b.Addr() + addr.Logical(off*SliceSize))
		if err != nil {
			t.Fatal(err)
		}
		owners[owner]++
	}
	if len(owners) != 4 {
		t.Fatalf("striping used %d servers: %v", len(owners), owners)
	}
}

func TestAllocExhaustion(t *testing.T) {
	p := testPool(t, alloc.Striped)
	if _, err := p.Alloc(65*SliceSize, 0); !errors.Is(err, alloc.ErrNoSpace) {
		t.Fatalf("expected ErrNoSpace, got %v", err)
	}
	// The failed allocation must not leak space.
	if p.FreePoolBytes() != 64*SliceSize {
		t.Fatalf("free = %d slices", p.FreePoolBytes()/SliceSize)
	}
	// Exactly the capacity fits.
	b, err := p.Alloc(64*SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if p.FreePoolBytes() != 64*SliceSize {
		t.Fatalf("free after release = %d slices", p.FreePoolBytes()/SliceSize)
	}
}

func TestReleaseAndAddressReuse(t *testing.T) {
	p := testPool(t, alloc.FirstFit)
	b1, err := p.Alloc(2*SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	a1 := b1.Addr()
	if err := b1.Release(); err != nil {
		t.Fatal(err)
	}
	if err := b1.Release(); !errors.Is(err, ErrReleased) {
		t.Fatalf("double release: %v", err)
	}
	// Freed logical range is reused.
	b2, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Addr() != a1 {
		t.Fatalf("logical range not reused: %#x vs %#x", b2.Addr(), a1)
	}
	// Reads of released memory fail.
	buf := make([]byte, 8)
	if err := p.Read(0, a1+addr.Logical(SliceSize), buf); !errors.Is(err, addr.ErrUnmapped) {
		t.Fatalf("read of released slice: %v", err)
	}
}

func TestTwoStepTranslation(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	b, err := p.Alloc(2*SliceSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	loc, err := p.Translate(b.Addr() + 12345)
	if err != nil {
		t.Fatal(err)
	}
	if loc.Server != 1 {
		t.Fatalf("server = %d", loc.Server)
	}
	if loc.Offset%SliceSize != 12345 {
		t.Fatalf("offset = %d", loc.Offset)
	}
}

func TestMigrationPreservesAddressesAndData(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	b, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("survives migration")
	if err := p.Write(0, b.Addr()+100, data); err != nil {
		t.Fatal(err)
	}
	s := addr.SliceOf(b.Addr())
	if err := p.MigrateSlice(s, 3); err != nil {
		t.Fatal(err)
	}
	owner, err := p.OwnerOf(b.Addr())
	if err != nil || owner != 3 {
		t.Fatalf("owner after migration = %v, %v", owner, err)
	}
	got := make([]byte, len(data))
	if err := p.Read(1, b.Addr()+100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("data after migration: %q", got)
	}
	// Old backing was freed: server 0's region is empty again.
	if p.SharedBytes(0) != 16*SliceSize {
		t.Fatal("shared size changed")
	}
	if got := inUse(p.nodes[0]); got != 0 {
		t.Fatalf("source region still holds %d bytes", got)
	}
}

func TestBalancerMovesHotData(t *testing.T) {
	cfg := Config{Placement: alloc.LocalityAware}
	for i := 0; i < 4; i++ {
		cfg.Servers = append(cfg.Servers, ServerConfig{Capacity: 16 * SliceSize, SharedBytes: 16 * SliceSize})
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.migration = migrationPolicy{minAccesses: 8, hysteresis: 1.5, maxMoves: 16}
	b, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Server 3 hammers the buffer remotely.
	buf := make([]byte, 64)
	for i := 0; i < 50; i++ {
		if err := p.Read(3, b.Addr(), buf); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := p.BalanceOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrated != 1 {
		t.Fatalf("report = %+v, want 1 migration", rep)
	}
	owner, err := p.OwnerOf(b.Addr())
	if err != nil || owner != 3 {
		t.Fatalf("owner after balancing = %v, %v", owner, err)
	}
	// Accesses from server 3 are now local.
	before := p.metrics.Counter("pool.reads.local").Value()
	if err := p.Read(3, b.Addr(), buf); err != nil {
		t.Fatal(err)
	}
	if p.metrics.Counter("pool.reads.local").Value() != before+1 {
		t.Fatal("post-migration access not local")
	}
}

func TestResizeShared(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	if err := p.ResizeShared(0, 4*SliceSize); err != nil {
		t.Fatal(err)
	}
	if p.SharedBytes(0) != 4*SliceSize {
		t.Fatalf("shared = %d slices", p.SharedBytes(0)/SliceSize)
	}
	// Allocation on server 0 is now limited to 4 slices; locality-aware
	// placement spills the rest.
	b, err := p.Alloc(6*SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	owners := map[addr.ServerID]int{}
	for off := int64(0); off < 6; off++ {
		o, _ := p.OwnerOf(b.Addr() + addr.Logical(off*SliceSize))
		owners[o]++
	}
	if owners[0] != 4 {
		t.Fatalf("server 0 holds %d slices, want 4 (%v)", owners[0], owners)
	}
	// Shrinking below live data fails.
	if err := p.ResizeShared(0, 2*SliceSize); err == nil {
		t.Fatal("shrink through live data accepted")
	}
	// Bad sizes rejected.
	if err := p.ResizeShared(0, -SliceSize); err == nil {
		t.Fatal("negative resize accepted")
	}
	if err := p.ResizeShared(9, SliceSize); err == nil {
		t.Fatal("unknown server accepted")
	}
}

func TestSizeOnceAppliesOptimizer(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	loads := []ServerLoad{
		{Capacity: 16 * SliceSize, SharedDemand: 8 * SliceSize, SharedWeight: 1},
		{Capacity: 16 * SliceSize, PrivateDemand: 16 * SliceSize, PrivateWeight: 1},
		{Capacity: 16 * SliceSize, PrivateDemand: 16 * SliceSize, PrivateWeight: 1},
		{Capacity: 16 * SliceSize, PrivateDemand: 16 * SliceSize, PrivateWeight: 1},
	}
	rep, err := p.SizeOnce(loads, 8*SliceSize)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SharedBytes[0] != 8*SliceSize {
		t.Fatalf("server 0 shared = %d slices, want 8", rep.SharedBytes[0]/SliceSize)
	}
	if p.SharedBytes(1) != 0 {
		t.Fatalf("idle server shared = %d, want 0", p.SharedBytes(1))
	}
	if _, err := p.SizeOnce(loads[:2], 0); err == nil {
		t.Fatal("load count mismatch accepted")
	}
}

// TestSizeOnceSkipsDeadLender runs a sizing round after a crash, with the
// only shared demand on the dead server. The round must plan over the
// live servers, which alone can hold the required pool, and leave the
// dead one's region as it is. Planning over every server put the pool on
// the dead server, resized its region, shrank the live ones to nothing
// and reported success, and the next Alloc found no room.
func TestSizeOnceSkipsDeadLender(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	if err := p.Crash(1); err != nil {
		t.Fatal(err)
	}
	loads := make([]ServerLoad, 4)
	for i := range loads {
		loads[i] = ServerLoad{Capacity: 16 * SliceSize, PrivateDemand: 16 * SliceSize, PrivateWeight: 5}
	}
	loads[1] = ServerLoad{Capacity: 16 * SliceSize, SharedDemand: 8 * SliceSize, SharedWeight: 1}
	rep, err := p.SizeOnce(loads, 4*SliceSize)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SharedBytes[1] != 16*SliceSize || p.SharedBytes(1) != 16*SliceSize {
		t.Fatalf("dead server reported at %d slices, region %d slices; want both left at 16",
			rep.SharedBytes[1]/SliceSize, p.SharedBytes(1)/SliceSize)
	}
	var live int64
	for _, s := range []addr.ServerID{0, 2, 3} {
		if rep.SharedBytes[s] != p.SharedBytes(s) {
			t.Errorf("server %d reported at %d slices, region is %d", s, rep.SharedBytes[s]/SliceSize, p.SharedBytes(s)/SliceSize)
		}
		live += p.SharedBytes(s)
	}
	if live < 4*SliceSize {
		t.Fatalf("live servers share %d slices, the required pool is 4", live/SliceSize)
	}
	if _, err := p.Alloc(SliceSize, 0); err != nil {
		t.Fatalf("alloc after sizing: %v", err)
	}
	if err := p.ResizeShared(1, 8*SliceSize); !errors.Is(err, ErrServerDead) {
		t.Fatalf("resize of the dead server: %v, want ErrServerDead", err)
	}
}

func TestCoherentRegionAndLocks(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	off, err := p.AllocCoherent(128)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("coordination state")
	if err := p.CoherentWrite(0, off, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := p.CoherentRead(1, off, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("coherent round trip: %q", got)
	}
	// Writing from another server invalidates the first reader's copy.
	if err := p.CoherentWrite(2, off, data); err != nil {
		t.Fatal(err)
	}
	if p.Directory().Stats().Invalidations == 0 {
		t.Fatal("no invalidations recorded")
	}
	// Locks provide mutual exclusion across goroutine "servers".
	lock, err := p.NewLock()
	if err != nil {
		t.Fatal(err)
	}
	counter := 0
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := lock.Lock(coherenceNode(s)); err != nil {
					t.Error(err)
					return
				}
				counter++
				if err := lock.Unlock(coherenceNode(s)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if counter != 100 {
		t.Fatalf("counter = %d", counter)
	}
}

func TestCoherentBounds(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	if _, err := p.AllocCoherent(0); err == nil {
		t.Fatal("zero coherent alloc accepted")
	}
	if _, err := p.AllocCoherent(2 << 20); err == nil {
		t.Fatal("oversized coherent alloc accepted")
	}
	if err := p.CoherentRead(0, -1, make([]byte, 4)); err == nil {
		t.Fatal("negative coherent read accepted")
	}
	if err := p.CoherentWrite(0, 1<<20-2, make([]byte, 4)); err == nil {
		t.Fatal("overrunning coherent write accepted")
	}
}

func TestMetricsDistinguishLocality(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	b, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := p.Read(0, b.Addr(), buf); err != nil { // local
		t.Fatal(err)
	}
	if err := p.Read(1, b.Addr(), buf); err != nil { // remote
		t.Fatal(err)
	}
	m := p.metrics
	if m.Counter("pool.reads.local").Value() != 1 || m.Counter("pool.reads.remote").Value() != 1 {
		t.Fatalf("locality counters: local=%d remote=%d",
			m.Counter("pool.reads.local").Value(), m.Counter("pool.reads.remote").Value())
	}
	if m.Counter("pool.bytes.read.remote").Value() != 64 {
		t.Fatal("remote byte counter wrong")
	}
}

func TestConcurrentPoolAccess(t *testing.T) {
	p := testPool(t, alloc.Striped)
	b, err := p.Alloc(8*SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			me := addr.ServerID(g % 4)
			buf := make([]byte, 256)
			for i := range buf {
				buf[i] = byte(g)
			}
			base := b.Addr() + addr.Logical(g)*addr.Logical(SliceSize)
			for i := 0; i < 50; i++ {
				if err := p.Write(me, base, buf); err != nil {
					t.Error(err)
					return
				}
				got := make([]byte, 256)
				if err := p.Read(me, base, got); err != nil {
					t.Error(err)
					return
				}
				if got[0] != byte(g) {
					t.Errorf("goroutine %d read %d", g, got[0])
					return
				}
			}
		}()
	}
	wg.Wait()
}
