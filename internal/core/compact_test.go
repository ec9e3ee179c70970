package core

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/failure"
)

// fragmentTail allocates and frees so server 0 keeps one live slice at
// the top of its region with free space below it.
func fragmentTail(t *testing.T, p *Pool) (*Buffer, []byte) {
	t.Helper()
	// Fill server 0 (16 slices) completely.
	filler, err := p.Alloc(15*SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	top, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 4096)
	if err := p.Write(0, top.Addr(), payload); err != nil {
		t.Fatal(err)
	}
	// Free the bottom 15 slices: the live slice sits at the tail.
	if err := filler.Release(); err != nil {
		t.Fatal(err)
	}
	return top, payload
}

func TestShrinkBlockedWithoutCompaction(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	_, _ = fragmentTail(t, p)
	if err := p.ResizeShared(0, 8*SliceSize); err == nil {
		t.Fatal("fragmented shrink should fail without compaction")
	}
}

func TestCompactRelocatesLocallyAndShrinks(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	top, payload := fragmentTail(t, p)
	rep, err := p.CompactServer(0, 8*SliceSize)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RelocatedLocal != 1 || rep.RelocatedRemote != 0 {
		t.Fatalf("report = %+v, want one local relocation", rep)
	}
	if err := p.ResizeShared(0, 8*SliceSize); err != nil {
		t.Fatalf("shrink after compaction: %v", err)
	}
	// Same logical address, same data, still on server 0.
	owner, err := p.OwnerOf(top.Addr())
	if err != nil || owner != 0 {
		t.Fatalf("owner = %v, %v", owner, err)
	}
	got := make([]byte, len(payload))
	if err := p.Read(1, top.Addr(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("data corrupted by compaction")
	}
}

func TestCompactEvacuatesRemotelyWhenLocalFull(t *testing.T) {
	for _, tc := range []struct {
		name string
		pool func(*testing.T) *Pool
	}{
		{"uncached", func(t *testing.T) *Pool { return testPool(t, alloc.LocalityAware) }},
		// Two servers, so the evacuation lands on the one that already
		// caches a page of the slice it is about to own: the rebind must
		// drop it (an owner never caches its own pages).
		{"cached", func(t *testing.T) *Pool { return newCachedPool(t, CacheConfig{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.pool(t)
			// Fill server 0 completely with live data; then demand a shrink.
			b, err := p.Alloc(16*SliceSize, 0)
			if err != nil {
				t.Fatal(err)
			}
			top := b.Addr() + addr.Logical(15*SliceSize)
			payload := bytes.Repeat([]byte{0x77}, 1000)
			if err := p.Write(0, top, payload); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(payload))
			if err := p.Read(1, top, got); err != nil {
				t.Fatal(err)
			}
			rep, err := p.CompactServer(0, 8*SliceSize)
			if err != nil {
				t.Fatal(err)
			}
			if rep.RelocatedRemote != 8 {
				t.Fatalf("report = %+v, want 8 remote evacuations", rep)
			}
			if err := p.ResizeShared(0, 8*SliceSize); err != nil {
				t.Fatalf("shrink after evacuation: %v", err)
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("invariants after evacuation: %v", err)
			}
			for from := 0; from < p.Servers(); from++ {
				clear(got)
				if err := p.Read(addr.ServerID(from), top, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatalf("evacuated data corrupted as read from server %d", from)
				}
			}
		})
	}
}

func TestShrinkSharedConvenience(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	_, payload := fragmentTail(t, p)
	if err := p.ShrinkShared(0, 4*SliceSize); err != nil {
		t.Fatal(err)
	}
	if p.SharedBytes(0) != 4*SliceSize {
		t.Fatalf("shared = %d slices", p.SharedBytes(0)/SliceSize)
	}
	_ = payload
	checkResidentWithinUse(t, p)
}

func TestCompactPreservesReplicaAntiAffinity(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	prot := failure.Policy{Scheme: failure.Replicate, Copies: 2}
	b, err := p.AllocProtected(2*SliceSize, 0, prot)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{3}, 2048)
	if err := p.Write(0, b.Addr(), payload); err != nil {
		t.Fatal(err)
	}
	// Shrink server 0 to zero: primaries must evacuate somewhere that is
	// not their replica's server.
	if err := p.ShrinkShared(0, 0); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2; i++ {
		la := b.Addr() + addr.Logical(i*SliceSize)
		owner, err := p.OwnerOf(la)
		if err != nil {
			t.Fatal(err)
		}
		if owner == 0 {
			t.Fatal("slice still on shrunk server")
		}
		for _, cp := range b.copies {
			if cp[i].Server == owner {
				t.Fatalf("slice %d collocated with its replica on server %d", i, owner)
			}
		}
	}
	// Crash the new primary server: replication must still mask.
	owner, _ := p.OwnerOf(b.Addr())
	if err := p.Crash(owner); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if err := p.Read(1, b.Addr(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("post-compaction crash masking failed")
	}
}

func TestSizeOnceShrinksThroughCompaction(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	_, payload := fragmentTail(t, p) // live slice at the top of server 0
	loads := make([]ServerLoad, 4)
	for i := range loads {
		loads[i] = ServerLoad{Capacity: 16 * SliceSize}
	}
	// Server 0's DRAM is precious (private demand); server 1 hosts the
	// pool instead.
	loads[0].PrivateDemand, loads[0].PrivateWeight = 16*SliceSize, 5
	loads[1].SharedDemand, loads[1].SharedWeight = 8*SliceSize, 1
	rep, err := p.SizeOnce(loads, 4*SliceSize)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SharedBytes[0] != 0 {
		t.Fatalf("server 0 shared = %d slices, want 0 (compaction should unblock)", rep.SharedBytes[0]/SliceSize)
	}
	if p.SharedBytes(0) != 0 {
		t.Fatalf("applied shared = %d", p.SharedBytes(0))
	}
	_ = payload
	checkResidentWithinUse(t, p)
}

func TestCompactValidation(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	if _, err := p.CompactServer(9, 0); err == nil {
		t.Fatal("bad server accepted")
	}
	if _, err := p.CompactServer(0, -SliceSize); err == nil {
		t.Fatal("negative target accepted")
	}
	if err := p.Crash(1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CompactServer(1, 0); err == nil {
		t.Fatal("compaction of dead server accepted")
	}
}

func TestCompactFailsWhenPoolFull(t *testing.T) {
	p := testPool(t, alloc.Striped)
	// Fill the whole pool; no server can absorb evacuations.
	if _, err := p.Alloc(64*SliceSize, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.CompactServer(0, 8*SliceSize); err == nil {
		t.Fatal("impossible compaction reported success")
	}
}

// TestCompactSerializesWithInflightMigration starts a compaction from
// inside MigrateSlice's fabric-delay hook — after the migration's
// pre-copy, before its commit, no pool lock held — whose only victim is
// the slice being migrated. Compaction must wait on the slice's
// commit-window lock; if it moved the slice first, the migration's
// commit would rebind a slice onto the server it already lives on.
func TestCompactSerializesWithInflightMigration(t *testing.T) {
	var p *Pool
	var once sync.Once
	compacted := make(chan error, 1)
	cfg := Config{Placement: alloc.LocalityAware}
	for i := 0; i < 2; i++ {
		cfg.Servers = append(cfg.Servers, ServerConfig{Capacity: 16 * SliceSize, SharedBytes: 16 * SliceSize})
	}
	cfg.Repair.FabricDelay = func() {
		once.Do(func() {
			done := make(chan struct{})
			go func() {
				_, err := p.CompactServer(0, 15*SliceSize)
				compacted <- err
				close(done)
			}()
			// Compaction is either done (it ran ahead of the commit) or
			// parked on the commit-window lock this migration holds; a
			// blocked goroutine raises no event, hence the bounded wait.
			select {
			case <-done:
			case <-time.After(50 * time.Millisecond):
			}
		})
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Alloc(16*SliceSize, 0) // server 0 is full: the top slice can only leave
	if err != nil {
		t.Fatal(err)
	}
	top := b.Addr() + addr.Logical(15*SliceSize)
	payload := fillPattern(4096, 9)
	if err := p.Write(0, top, payload); err != nil {
		t.Fatal(err)
	}
	if err := p.MigrateSlice(addr.SliceOf(top), 1); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if err := <-compacted; err != nil {
		t.Fatalf("compact: %v", err)
	}

	if loc, err := p.Translate(top); err != nil || loc.Server != 1 {
		t.Fatalf("Translate = %+v, %v; want the slice on server 1", loc, err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if got, want := p.FreePoolBytes(), int64(16*SliceSize); got != want {
		t.Fatalf("FreePoolBytes = %d slices, want %d", got/SliceSize, want/SliceSize)
	}
	if err := p.ResizeShared(0, 15*SliceSize); err != nil || p.SharedBytes(0) != 15*SliceSize {
		t.Fatalf("shrink after the move: %v (shared = %d slices)", err, p.SharedBytes(0)/SliceSize)
	}
	for from := addr.ServerID(0); from < 2; from++ {
		got := make([]byte, len(payload))
		if err := p.Read(from, top, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("data diverged as read from server %d", from)
		}
	}
}

// rebindUnderLocks calls rebindLocked holding what it requires.
func rebindUnderLocks(p *Pool, s uint64, dstSrv addr.ServerID, dstOff int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	lock := p.stripeFor(s)
	lock.Lock()
	defer lock.Unlock()
	p.rebindLocked(s, p.lookupSlice(s), dstSrv, dstOff)
}

// TestRebindSameServerMovesExtent pins the same-owner case of
// rebindLocked, which local compaction rides: the address translates to
// the new extent on the same owner, and the old extent is freed.
func TestRebindSameServerMovesExtent(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	b, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := b.firstSlice()
	newOff, err := p.nodes[0].Alloc(SliceSize)
	if err != nil {
		t.Fatal(err)
	}
	rebindUnderLocks(p, s, 0, newOff)
	loc, err := p.Translate(b.Addr())
	if err != nil || loc != (addr.Location{Server: 0, Offset: newOff}) {
		t.Fatalf("Translate = %+v, %v; want server 0 offset %d", loc, err, newOff)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestCompactRidesTheMoveEngine evacuates two primaries and two replica
// blocks from server 0 and checks compaction is a caller of the shared
// two-phase mover: the fabric-delay hook fires once per block, between
// pre-copy and commit with no pool lock held — so a write and a read of
// the very slice being moved and an allocation elsewhere complete from
// inside it — and what the hook wrote reaches the new home through the
// dirty-delta commit, for primaries and replica copies alike.
func TestCompactRidesTheMoveEngine(t *testing.T) {
	var p *Pool
	var moving []addr.Logical // base of the slice each hook call interrupts
	calls := 0
	patch := func(k int) []byte { return fillPattern(3000, byte(40+k)) }
	const patchOff = 70_000
	cfg := Config{Placement: alloc.LocalityAware}
	for i := 0; i < 3; i++ {
		cfg.Servers = append(cfg.Servers, ServerConfig{Capacity: 16 * SliceSize, SharedBytes: 16 * SliceSize})
	}
	cfg.Repair.FabricDelay = func() {
		k := calls
		calls++
		if k >= len(moving) {
			return
		}
		la := moving[k] + patchOff
		if err := p.Write(1, la, patch(k)); err != nil {
			t.Errorf("hook %d: write to the moving slice: %v", k, err)
		}
		got := make([]byte, len(patch(k)))
		if err := p.Read(2, la, got); err != nil || !bytes.Equal(got, patch(k)) {
			t.Errorf("hook %d: read of the moving slice: err=%v", k, err)
		}
		if _, err := p.Alloc(SliceSize, 1); err != nil {
			t.Errorf("hook %d: alloc on another server: %v", k, err)
		}
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Server 2 is half full, so b's replicas (avoiding its primaries'
	// server 1) prefer server 0, below a's primaries.
	if _, err := p.Alloc(8*SliceSize, 2); err != nil {
		t.Fatal(err)
	}
	prot := failure.Policy{Scheme: failure.Replicate, Copies: 2}
	a, err := p.AllocProtected(2*SliceSize, 0, prot)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.AllocProtected(2*SliceSize, 1, prot)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2; i++ {
		if srv := p.lookupSlice(a.firstSlice() + i).server; srv != 0 {
			t.Fatalf("setup: a's slice %d is on server %d, want 0", i, srv)
		}
		if srv := b.copies[0][i].Server; srv != 0 {
			t.Fatalf("setup: b's replica %d is on server %d, want 0", i, srv)
		}
	}
	base := fillPattern(2*SliceSize, 5)
	for _, buf := range []*Buffer{a, b} {
		if err := p.Write(0, buf.Addr(), base); err != nil {
			t.Fatal(err)
		}
	}
	// Pass order: primaries from the highest offset down, then replica
	// blocks in buffer order.
	moving = []addr.Logical{a.Addr() + SliceSize, a.Addr(), b.Addr(), b.Addr() + SliceSize}

	rep, err := p.CompactServer(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RelocatedRemote != 4 || rep.RelocatedLocal != 0 {
		t.Fatalf("report = %+v, want 4 remote relocations", rep)
	}
	if calls != 4 {
		t.Fatalf("fabric-delay hook ran %d times, want once per block moved (4)", calls)
	}
	if got, want := p.metrics.Counter("pool.migrations.commit_bytes").Value(), uint64(4*len(patch(0))); got != want {
		t.Fatalf("commit_bytes = %d, want the four hook writes (%d)", got, want)
	}
	byOp := map[string]int{}
	for _, sp := range p.TraceSpans() {
		byOp[sp.Op]++
	}
	if byOp["pool.compact"] != 1 || byOp["pool.migrate.precopy"] != 4 || byOp["pool.migrate.commit"] != 4 {
		t.Fatalf("spans = %v, want one pool.compact root over 4 precopy + 4 commit children", byOp)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}

	want := [2][]byte{bytes.Clone(base), bytes.Clone(base)}
	for k, la := range moving {
		buf, start := 0, a.Addr()
		if k >= 2 {
			buf, start = 1, b.Addr()
		}
		copy(want[buf][int64(la-start)+patchOff:], patch(k))
	}
	// b must now be served from its re-homed replicas alone.
	if err := p.Crash(1); err != nil {
		t.Fatal(err)
	}
	for i, buf := range []*Buffer{a, b} {
		got := make([]byte, len(base))
		if err := p.Read(2, buf.Addr(), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("buffer %d lost a write made during its move", i)
		}
	}
}

// TestCompactRehomesParity evacuates the server holding an EC stripe's
// parity row: the row is recomputed onto the one server that holds none
// of the stripe, its old extent is freed, and later writes keep the new
// row consistent — a data-shard crash still reconstructs through it.
func TestCompactRehomesParity(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	b, err := p.AllocProtected(2*SliceSize, 0, failure.Policy{Scheme: failure.ErasureCode, K: 2, M: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := fillPattern(2*SliceSize, 17)
	if err := p.Write(0, b.Addr(), data); err != nil {
		t.Fatal(err)
	}
	paritySrv := b.ec.stripes[0].parity[0].server
	rep, err := p.CompactServer(paritySrv, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RelocatedRemote != 1 {
		t.Fatalf("report = %+v, want the parity row evacuated", rep)
	}
	newSrv := b.ec.stripes[0].parity[0].server
	for i := uint64(0); i < 2; i++ {
		if owner := p.lookupSlice(b.firstSlice() + i).server; newSrv == paritySrv || newSrv == owner {
			t.Fatalf("parity row on server %d (was %d; data shard %d on %d)", newSrv, paritySrv, i, owner)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	patch := fillPattern(512, 29)
	if err := p.Write(1, b.Addr()+addr.Logical(100), patch); err != nil {
		t.Fatal(err)
	}
	copy(data[100:], patch)
	dataSrv, err := p.OwnerOf(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Crash(dataSrv); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := p.Read(newSrv, b.Addr(), got); err != nil {
		t.Fatalf("read after data crash: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reconstruction through the re-homed parity row diverged")
	}
}
