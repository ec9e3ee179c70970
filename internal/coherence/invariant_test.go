package coherence

import (
	"math/rand"
	"testing"

	"github.com/lmp-project/lmp/internal/chaos"
	"github.com/lmp-project/lmp/internal/sim"
)

// checkInvariants asserts the directory's structural invariants over a
// set of block addresses.
func checkInvariants(t *testing.T, d *Directory, capacity int, addrs []int64) {
	t.Helper()
	if d.TrackedBlocks() > capacity {
		t.Fatalf("filter holds %d blocks, capacity %d", d.TrackedBlocks(), capacity)
	}
	for _, a := range addrs {
		st, holders := d.StateOf(a)
		switch st {
		case Modified:
			if len(holders) != 1 {
				t.Fatalf("modified block %d has %d holders", a, len(holders))
			}
		case Shared:
			if len(holders) == 0 {
				t.Fatalf("shared block %d has no holders", a)
			}
		case Invalid:
			if len(holders) != 0 {
				t.Fatalf("invalid block %d has holders %v", a, holders)
			}
		}
	}
}

// TestDirectoryRandomizedInvariants drives the directory through random
// operation streams across several capacities, checking MSI invariants
// after every step.
func TestDirectoryRandomizedInvariants(t *testing.T) {
	for _, capacity := range []int{1, 4, 64} {
		capacity := capacity
		rng := rand.New(rand.NewSource(int64(capacity)))
		d := mustDir(t, 64, capacity)
		var addrs []int64
		for i := int64(0); i < 16; i++ {
			addrs = append(addrs, i*64)
		}
		for op := 0; op < 3000; op++ {
			node := NodeID(rng.Intn(5))
			a := addrs[rng.Intn(len(addrs))]
			switch rng.Intn(4) {
			case 0:
				if _, err := d.AcquireRead(node, a); err != nil {
					t.Fatalf("cap=%d op=%d read: %v", capacity, op, err)
				}
			case 1:
				if _, err := d.AcquireWrite(node, a); err != nil {
					t.Fatalf("cap=%d op=%d write: %v", capacity, op, err)
				}
			case 2:
				d.Evict(node, a)
			case 3:
				tracked := d.TrackedBlocks()
				if _, holds := d.WriteNoAllocate(node, a); !holds && d.TrackedBlocks() > tracked {
					t.Fatalf("cap=%d op=%d: write-no-allocate admitted a block", capacity, op)
				}
			}
			if op%97 == 0 {
				checkInvariants(t, d, capacity, addrs)
			}
		}
		checkInvariants(t, d, capacity, addrs)
		// Traffic accounting sanity: invalidations can't exceed grants.
		st := d.Stats()
		if st.Invalidations > st.Fetches*8 {
			t.Fatalf("cap=%d: implausible traffic %+v", capacity, st)
		}
	}
}

// checkNoDeadHolders asserts no crashed node appears as a holder after
// its DropNode — the inclusive-filter equivalent of "no lost acks".
func checkNoDeadHolders(t *testing.T, d *Directory, addrs []int64, dead map[NodeID]bool) {
	t.Helper()
	for _, a := range addrs {
		_, holders := d.StateOf(a)
		for _, h := range holders {
			if dead[h] {
				t.Fatalf("block %d still held by crashed node %d", a, h)
			}
		}
	}
}

// TestDirectoryChaosSchedule drives the directory through a seeded chaos
// schedule on the sim clock: random acquire/evict traffic with crash-stop
// node failures landing mid-ownership-transfer (between a write upgrade
// and the next acquire). MSI invariants must hold after every fault, no
// crashed node may remain a holder, and the whole run must replay
// deterministically from its seed.
func TestDirectoryChaosSchedule(t *testing.T) {
	run := func(seed int64) (Stats, string) {
		const capacity = 32
		d := mustDir(t, 64, capacity)
		eng := sim.NewEngine()
		in := chaos.New(eng, chaos.Config{Seed: seed})
		rng := rand.New(rand.NewSource(seed))
		var addrs []int64
		for i := int64(0); i < 12; i++ {
			addrs = append(addrs, i*64)
		}
		dead := map[NodeID]bool{}
		in.OnCrash = func(n int) {
			dead[NodeID(n)] = true
			d.DropNode(NodeID(n))
			checkInvariants(t, d, capacity, addrs)
			checkNoDeadHolders(t, d, addrs, dead)
		}
		liveNode := func() NodeID {
			for {
				n := NodeID(rng.Intn(6))
				if !dead[n] {
					return n
				}
			}
		}
		crashes := 0
		// Each slot draws its op at execution time, so the generator sees
		// the live set as of that sim instant; one seed yields one stream.
		for op := 0; op < 600; op++ {
			eng.At(sim.Time(sim.Duration(op+1)*sim.Microsecond), func() {
				roll := rng.Intn(100)
				switch {
				case roll < 40:
					if _, err := d.AcquireRead(liveNode(), addrs[rng.Intn(len(addrs))]); err != nil {
						t.Fatalf("read: %v", err)
					}
				case roll < 80:
					if _, err := d.AcquireWrite(liveNode(), addrs[rng.Intn(len(addrs))]); err != nil {
						t.Fatalf("write: %v", err)
					}
				case roll < 90:
					d.Evict(liveNode(), addrs[rng.Intn(len(addrs))])
				default:
					if crashes >= 3 || len(dead) >= 5 {
						return
					}
					crashes++
					// The crash event fires right after this slot: exactly
					// the window where the victim may hold a just-upgraded
					// Modified copy mid-ownership-transfer.
					in.CrashAt(eng.Now(), int(liveNode()))
				}
			})
		}
		eng.Run()
		checkInvariants(t, d, capacity, addrs)
		checkNoDeadHolders(t, d, addrs, dead)
		return d.Stats(), in.TraceString()
	}
	for _, seed := range []int64{1, 2, 77} {
		s1, t1 := run(seed)
		s2, t2 := run(seed)
		if s1 != s2 || t1 != t2 {
			t.Fatalf("seed %d: non-deterministic replay:\nstats %+v vs %+v\ntrace:\n%s---\n%s",
				seed, s1, s2, t1, t2)
		}
	}
}

// TestDropNodeLosesDirtyWithoutWriteback locks DropNode's crash-stop
// contract: a dropped Modified owner is counted as lost dirty data and
// never counted as a writeback.
func TestDropNodeLosesDirtyWithoutWriteback(t *testing.T) {
	d := mustDir(t, 64, 8)
	if _, err := d.AcquireWrite(3, 128); err != nil {
		t.Fatal(err)
	}
	wbBefore := d.Stats().Writebacks
	if lost := d.DropNode(3); lost != 1 {
		t.Fatalf("lost dirty = %d, want 1", lost)
	}
	if d.Stats().Writebacks != wbBefore {
		t.Fatal("crash-stop drop performed a writeback")
	}
	if d.Stats().LostDirty != 1 {
		t.Fatalf("LostDirty = %d, want 1", d.Stats().LostDirty)
	}
	if st, holders := d.StateOf(128); st != Invalid || len(holders) != 0 {
		t.Fatalf("block after drop: %v %v", st, holders)
	}
	// A shared copy, by contrast, is dropped silently.
	if _, err := d.AcquireRead(1, 256); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AcquireRead(2, 256); err != nil {
		t.Fatal(err)
	}
	if lost := d.DropNode(1); lost != 0 {
		t.Fatalf("shared drop lost %d dirty blocks", lost)
	}
	if _, holders := d.StateOf(256); len(holders) != 1 || holders[0] != 2 {
		t.Fatalf("holders after shared drop: %v", holders)
	}
}

// TestDirectoryWriteReadChain verifies a long ownership chain keeps
// exactly one writable copy alive at each step.
func TestDirectoryWriteReadChain(t *testing.T) {
	d := mustDir(t, 64, 32)
	for i := 0; i < 100; i++ {
		node := NodeID(i % 7)
		killed, err := d.AcquireWrite(node, 128)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range killed {
			if k == node {
				t.Fatal("write invalidated the requester itself")
			}
		}
		st, holders := d.StateOf(128)
		if st != Modified || len(holders) != 1 || holders[0] != node {
			t.Fatalf("step %d: state %v holders %v", i, st, holders)
		}
	}
}
