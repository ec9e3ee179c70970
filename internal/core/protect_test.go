package core

import (
	"bytes"
	"testing"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/failure"
)

func fillPattern(n int, seed byte) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = seed + byte(i%13)
	}
	return buf
}

func TestUnprotectedCrashRaisesException(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	b, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(0, b.Addr(), []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := p.Crash(0); err != nil {
		t.Fatal(err)
	}
	if !p.Dead(0) {
		t.Fatal("server not marked dead")
	}
	buf := make([]byte, 6)
	err = p.Read(1, b.Addr(), buf)
	if !failure.IsMemoryException(err) {
		t.Fatalf("expected MemoryException, got %v", err)
	}
}

func TestCrashValidation(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	if err := p.Crash(99); err == nil {
		t.Fatal("crash of unknown server accepted")
	}
	if _, err := p.RepairServer(0); err == nil {
		t.Fatal("repair of live server accepted")
	}
}

func TestReplicationMasksCrash(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	prot := failure.Policy{Scheme: failure.Replicate, Copies: 2}
	b, err := p.AllocProtected(2*SliceSize, 0, prot)
	if err != nil {
		t.Fatal(err)
	}
	data := fillPattern(3000, 7)
	la := b.Addr() + addr.Logical(SliceSize-1500) // spans both slices
	if err := p.Write(0, la, data); err != nil {
		t.Fatal(err)
	}
	if err := p.Crash(0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := p.Read(1, la, got); err != nil {
		t.Fatalf("masked read failed: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("recovered data corrupt")
	}
	// The data was re-homed to a live server; further reads are normal.
	owner, err := p.OwnerOf(la)
	if err != nil {
		t.Fatal(err)
	}
	if owner == 0 {
		t.Fatal("slice still owned by dead server")
	}
	if p.metrics.Counter("pool.recoveries").Value() == 0 {
		t.Fatal("no recoveries counted")
	}
}

func TestReplicaAntiAffinity(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	prot := failure.Policy{Scheme: failure.Replicate, Copies: 3}
	b, err := p.AllocProtected(SliceSize, 0, prot)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[addr.ServerID]bool{}
	primary, err := p.OwnerOf(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	seen[primary] = true
	for _, cp := range b.copies {
		if seen[cp[0].Server] {
			t.Fatalf("replica collocated on server %d", cp[0].Server)
		}
		seen[cp[0].Server] = true
	}
}

func TestReplicationSurvivesDoubleCrashWithThreeCopies(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	prot := failure.Policy{Scheme: failure.Replicate, Copies: 3}
	b, err := p.AllocProtected(SliceSize, 0, prot)
	if err != nil {
		t.Fatal(err)
	}
	data := fillPattern(512, 3)
	if err := p.Write(0, b.Addr(), data); err != nil {
		t.Fatal(err)
	}
	if err := p.Crash(0); err != nil {
		t.Fatal(err)
	}
	// First masked read re-homes the data; find where, crash that too if
	// it holds the primary... simpler: crash another server that held a
	// replica and keep reading.
	got := make([]byte, len(data))
	if err := p.Read(1, b.Addr(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("after first crash: corrupt")
	}
	owner, _ := p.OwnerOf(b.Addr())
	// Crash the new primary as well.
	if err := p.Crash(owner); err != nil {
		t.Fatal(err)
	}
	got2 := make([]byte, len(data))
	if err := p.Read(1, b.Addr(), got2); err != nil {
		t.Fatalf("after second crash: %v", err)
	}
	if !bytes.Equal(got2, data) {
		t.Fatal("after second crash: corrupt")
	}
}

func TestErasureCodeMasksCrash(t *testing.T) {
	p := testPool(t, alloc.Striped)
	prot := failure.Policy{Scheme: failure.ErasureCode, K: 2, M: 1}
	b, err := p.AllocProtected(4*SliceSize, 0, prot)
	if err != nil {
		t.Fatal(err)
	}
	data := fillPattern(4096, 9)
	positions := []addr.Logical{
		b.Addr(),
		b.Addr() + addr.Logical(SliceSize) + 77,
		b.Addr() + addr.Logical(3*SliceSize) + 1000,
	}
	for i, la := range positions {
		if err := p.Write(0, la, fillPattern(len(data), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Find which server owns the first slice and crash it.
	owner, err := p.OwnerOf(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Crash(owner); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := p.Read(1, positions[0], got); err != nil {
		t.Fatalf("EC masked read failed: %v", err)
	}
	if !bytes.Equal(got, fillPattern(len(data), 0)) {
		t.Fatal("EC reconstructed data corrupt")
	}
	newOwner, err := p.OwnerOf(positions[0])
	if err != nil || newOwner == owner {
		t.Fatalf("slice not re-homed: %v %v", newOwner, err)
	}
}

func TestErasureCodeRepairServer(t *testing.T) {
	p := testPool(t, alloc.Striped)
	prot := failure.Policy{Scheme: failure.ErasureCode, K: 2, M: 1}
	b, err := p.AllocProtected(4*SliceSize, 0, prot)
	if err != nil {
		t.Fatal(err)
	}
	ref := fillPattern(4*SliceSize, 5)
	if err := p.Write(0, b.Addr(), ref); err != nil {
		t.Fatal(err)
	}
	victim, err := p.OwnerOf(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Crash(victim); err != nil {
		t.Fatal(err)
	}
	recovered, err := p.RepairServer(victim)
	if err != nil {
		t.Fatalf("repair: %v (recovered %d)", err, recovered)
	}
	if recovered == 0 {
		t.Fatal("nothing recovered")
	}
	got := make([]byte, len(ref))
	if err := p.Read(1, b.Addr(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("repaired data corrupt")
	}
}

func TestECStripesDataAcrossServersDespitePlacementPolicy(t *testing.T) {
	// Even on a locality-aware pool, EC buffers must stripe their data
	// slices so one server crash never takes out K shards of a stripe.
	p := testPool(t, alloc.LocalityAware)
	prot := failure.Policy{Scheme: failure.ErasureCode, K: 2, M: 1}
	b, err := p.AllocProtected(4*SliceSize, 0, prot)
	if err != nil {
		t.Fatal(err)
	}
	ref := fillPattern(4*SliceSize, 11)
	if err := p.Write(0, b.Addr(), ref); err != nil {
		t.Fatal(err)
	}
	for stripe := 0; stripe < 2; stripe++ {
		a, _ := p.OwnerOf(b.Addr() + addr.Logical(2*stripe)*SliceSize)
		bb, _ := p.OwnerOf(b.Addr() + addr.Logical(2*stripe+1)*SliceSize)
		if a == bb {
			t.Fatalf("stripe %d data shards collocated on server %d", stripe, a)
		}
	}
	// Crash any one server; all data must survive.
	if err := p.Crash(0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(ref))
	if err := p.Read(1, b.Addr(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("data lost despite EC striping")
	}
}

func TestWriteAfterCrashRecoversFirst(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	prot := failure.Policy{Scheme: failure.Replicate, Copies: 2}
	b, err := p.AllocProtected(SliceSize, 0, prot)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(0, b.Addr(), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := p.Crash(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(1, b.Addr(), []byte("v2")); err != nil {
		t.Fatalf("write after crash: %v", err)
	}
	got := make([]byte, 2)
	if err := p.Read(2, b.Addr(), got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2" {
		t.Fatalf("read %q, want v2", got)
	}
}

func TestECParityDeltaKeepsParityConsistent(t *testing.T) {
	// Write, overwrite, then crash: reconstruction must reflect the
	// latest contents (parity deltas applied correctly).
	p := testPool(t, alloc.Striped)
	prot := failure.Policy{Scheme: failure.ErasureCode, K: 2, M: 1}
	b, err := p.AllocProtected(2*SliceSize, 0, prot)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(0, b.Addr()+500, fillPattern(1000, 1)); err != nil {
		t.Fatal(err)
	}
	latest := fillPattern(1000, 2)
	if err := p.Write(0, b.Addr()+500, latest); err != nil {
		t.Fatal(err)
	}
	owner, _ := p.OwnerOf(b.Addr())
	if err := p.Crash(owner); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 1000)
	if err := p.Read(1, b.Addr()+500, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, latest) {
		t.Fatal("reconstruction returned stale data")
	}
}

func TestAllocProtectedValidation(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	if _, err := p.AllocProtected(SliceSize, 0, failure.Policy{Scheme: failure.Replicate, Copies: 1}); err == nil {
		t.Fatal("bad protection accepted")
	}
	if _, err := p.Alloc(0, 0); err == nil {
		t.Fatal("zero alloc accepted")
	}
}

func TestProtectionOverheadConsumesPool(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	free0 := p.FreePoolBytes()
	prot := failure.Policy{Scheme: failure.Replicate, Copies: 2}
	b, err := p.AllocProtected(2*SliceSize, 0, prot)
	if err != nil {
		t.Fatal(err)
	}
	if used := free0 - p.FreePoolBytes(); used != 4*SliceSize {
		t.Fatalf("2-copy allocation used %d slices, want 4", used/SliceSize)
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if p.FreePoolBytes() != free0 {
		t.Fatalf("release leaked: %d != %d", p.FreePoolBytes(), free0)
	}
}
