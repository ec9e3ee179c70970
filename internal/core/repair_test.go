package core

import (
	"bytes"
	"testing"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/failure"
)

// TestRepairRestoresReplicaTolerance crashes the server hosting a replica
// (not the primary), repairs, then crashes the primary's server: the
// re-homed replica must mask the second crash with Copies=2, which only
// works if RepairServer rebuilt the lost copy.
func TestRepairRestoresReplicaTolerance(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	prot := failure.Policy{Scheme: failure.Replicate, Copies: 2}
	b, err := p.AllocProtected(SliceSize, 0, prot)
	if err != nil {
		t.Fatal(err)
	}
	data := fillPattern(4096, 3)
	if err := p.Write(0, b.Addr(), data); err != nil {
		t.Fatal(err)
	}
	replicaSrv := b.copies[0][0].Server
	primarySrv, err := p.OwnerOf(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Crash(replicaSrv); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RepairServer(replicaSrv); err != nil {
		t.Fatalf("repair after replica-holder crash: %v", err)
	}
	if got := b.copies[0][0].Server; got == replicaSrv || p.isDead(got) {
		t.Fatalf("replica not re-homed: still on server %d", got)
	}
	if n := p.metrics.Counter("pool.repair.protection_blocks").Value(); n == 0 {
		t.Fatal("no protection blocks counted as repaired")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants after repair: %v", err)
	}
	// Second fault: lose the primary. Tolerance must be back to one.
	if err := p.Crash(primarySrv); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := p.Read(1, b.Addr(), got); err != nil {
		t.Fatalf("read after second crash: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data diverged after repair + second crash")
	}
}

// TestRepairRebuildsParity crashes the server hosting a stripe's parity
// block, repairs, then crashes a data-shard server: with K=2 M=1 the
// rebuilt parity is the only way the second read can succeed.
func TestRepairRebuildsParity(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	prot := failure.Policy{Scheme: failure.ErasureCode, K: 2, M: 1}
	b, err := p.AllocProtected(2*SliceSize, 0, prot)
	if err != nil {
		t.Fatal(err)
	}
	data := fillPattern(2*SliceSize, 11)
	if err := p.Write(0, b.Addr(), data); err != nil {
		t.Fatal(err)
	}
	paritySrv := b.ec.stripes[0].parity[0].server
	if err := p.Crash(paritySrv); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RepairServer(paritySrv); err != nil {
		t.Fatalf("repair after parity-holder crash: %v", err)
	}
	newParity := b.ec.stripes[0].parity[0].server
	if newParity == paritySrv || p.isDead(newParity) {
		t.Fatalf("parity not re-homed: still on server %d", newParity)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants after repair: %v", err)
	}
	// Writes after repair must keep the new parity block consistent.
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
	if err := p.Read(1, b.Addr(), got); err != nil {
		t.Fatalf("read after data crash: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("reconstruction through rebuilt parity diverged")
	}
}

// TestPlacementAvoidsDeadServers locks the placer contract: after a
// crash, new allocations never land on the dead server.
func TestPlacementAvoidsDeadServers(t *testing.T) {
	for _, pol := range []alloc.Policy{alloc.FirstFit, alloc.RoundRobin, alloc.LocalityAware, alloc.Striped} {
		p := testPool(t, pol)
		if err := p.Crash(1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			b, err := p.Alloc(2*SliceSize, 1)
			if err != nil {
				t.Fatalf("%v alloc %d: %v", pol, i, err)
			}
			first := b.firstSlice()
			for s := first; s < first+b.sliceCount(); s++ {
				if back := p.lookupSlice(s); back.server == 1 {
					t.Fatalf("%v placed slice %d on dead server", pol, s)
				}
			}
		}
	}
}

// TestCheckInvariantsFlagsViolations corrupts bookkeeping on purpose and
// expects the checker to notice (guards against a vacuously green oracle).
func TestCheckInvariantsFlagsViolations(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	b, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("fresh pool: %v", err)
	}
	// A reservation nothing points at: what a mover's abort path leaves
	// behind if it forgets to free its destination.
	leaked, err := p.nodes[1].Alloc(SliceSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err == nil {
		t.Fatal("leaked extent not reported")
	}
	if _, err := p.nodes[1].Free(leaked); err != nil {
		t.Fatal(err)
	}
	s := b.firstSlice()
	p.mu.Lock()
	p.deleteSlice(s)
	p.mu.Unlock()
	if err := p.CheckInvariants(); err == nil {
		t.Fatal("missing backing not reported")
	}
}
