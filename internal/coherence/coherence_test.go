package coherence

import (
	"slices"
	"sync"
	"testing"
)

func mustDir(t *testing.T, gran int64, capacity int) *Directory {
	t.Helper()
	d, err := NewDirectory(gran, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDirectoryValidation(t *testing.T) {
	if _, err := NewDirectory(0, 10); err == nil {
		t.Error("zero granularity accepted")
	}
	if _, err := NewDirectory(48, 10); err == nil {
		t.Error("non-power-of-two granularity accepted")
	}
	if _, err := NewDirectory(64, 0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestReadSharing(t *testing.T) {
	d := mustDir(t, 64, 16)
	if _, err := d.AcquireRead(0, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AcquireRead(1, 100); err != nil {
		t.Fatal(err)
	}
	st, holders := d.StateOf(100)
	if st != Shared || len(holders) != 2 {
		t.Fatalf("state = %v holders = %v", st, holders)
	}
	s := d.Stats()
	if s.Fetches != 2 || s.Invalidations != 0 {
		t.Fatalf("stats = %+v", s)
	}
	// Re-read by a holder is a hit.
	if _, err := d.AcquireRead(0, 100); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Hits != 1 {
		t.Fatalf("hits = %d", d.Stats().Hits)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d := mustDir(t, 64, 16)
	for n := NodeID(0); n < 3; n++ {
		if _, err := d.AcquireRead(n, 0); err != nil {
			t.Fatal(err)
		}
	}
	killed, err := d.AcquireWrite(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(killed) != 2 {
		t.Fatalf("killed = %v, want nodes 0 and 1", killed)
	}
	st, holders := d.StateOf(0)
	if st != Modified || len(holders) != 1 {
		t.Fatalf("state = %v holders = %v", st, holders)
	}
	if d.Stats().Invalidations != 2 {
		t.Fatalf("invalidations = %d", d.Stats().Invalidations)
	}
}

func TestWriteThenReadDowngrades(t *testing.T) {
	d := mustDir(t, 64, 16)
	if _, err := d.AcquireWrite(0, 0); err != nil {
		t.Fatal(err)
	}
	down, err := d.AcquireRead(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(down) != 1 || down[0] != 0 {
		t.Fatalf("downgraded = %v, want [0]", down)
	}
	if d.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d", d.Stats().Writebacks)
	}
	st, holders := d.StateOf(0)
	if st != Shared || len(holders) != 2 {
		t.Fatalf("state = %v holders = %v", st, holders)
	}
}

func TestWriteUpgradeByOwnerIsHit(t *testing.T) {
	d := mustDir(t, 64, 16)
	if _, err := d.AcquireWrite(0, 0); err != nil {
		t.Fatal(err)
	}
	killed, err := d.AcquireWrite(0, 0)
	if err != nil || killed != nil {
		t.Fatalf("re-write: %v %v", killed, err)
	}
	if d.Stats().Hits != 1 {
		t.Fatalf("hits = %d", d.Stats().Hits)
	}
}

func TestOwnershipTransfer(t *testing.T) {
	d := mustDir(t, 64, 16)
	if _, err := d.AcquireWrite(0, 0); err != nil {
		t.Fatal(err)
	}
	killed, err := d.AcquireWrite(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(killed) != 1 || killed[0] != 0 {
		t.Fatalf("killed = %v", killed)
	}
	s := d.Stats()
	if s.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1 (dirty transfer)", s.Writebacks)
	}
}

func TestFalseSharingGranularity(t *testing.T) {
	// Two nodes write adjacent 8-byte fields of the same 64-byte line.
	run := func(gran int64) Stats {
		d := mustDir(t, gran, 64)
		for i := 0; i < 50; i++ {
			if _, err := d.AcquireWrite(0, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := d.AcquireWrite(1, 8); err != nil {
				t.Fatal(err)
			}
		}
		return d.Stats()
	}
	coarse := run(64)
	fine := run(8)
	if coarse.Invalidations == 0 {
		t.Fatal("coarse tracking shows no false sharing")
	}
	if fine.Invalidations != 0 {
		t.Fatalf("fine tracking still invalidates: %+v", fine)
	}
}

func TestSnoopFilterBackInvalidation(t *testing.T) {
	d := mustDir(t, 64, 4)
	for i := int64(0); i < 8; i++ {
		if _, err := d.AcquireRead(0, i*64); err != nil {
			t.Fatal(err)
		}
	}
	if d.TrackedBlocks() > 4 {
		t.Fatalf("filter holds %d blocks, capacity 4", d.TrackedBlocks())
	}
	s := d.Stats()
	if s.BackInvalidates != 4 {
		t.Fatalf("back invalidates = %d, want 4", s.BackInvalidates)
	}
	if s.Invalidations != 4 {
		t.Fatalf("invalidations = %d, want 4 (one holder per victim)", s.Invalidations)
	}
}

func TestBackInvalidationWritesBackDirty(t *testing.T) {
	d := mustDir(t, 64, 1)
	if _, err := d.AcquireWrite(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AcquireRead(1, 64); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1 (dirty victim)", d.Stats().Writebacks)
	}
}

func TestEvict(t *testing.T) {
	d := mustDir(t, 64, 16)
	if _, err := d.AcquireWrite(0, 0); err != nil {
		t.Fatal(err)
	}
	d.Evict(0, 0)
	if d.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d", d.Stats().Writebacks)
	}
	if d.TrackedBlocks() != 0 {
		t.Fatal("evicted block still tracked")
	}
	// Evicting a non-holder or untracked block is a no-op.
	d.Evict(3, 0)
	if _, err := d.AcquireRead(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AcquireRead(1, 0); err != nil {
		t.Fatal(err)
	}
	d.Evict(0, 0)
	st, holders := d.StateOf(0)
	if st != Shared || len(holders) != 1 {
		t.Fatalf("after partial evict: %v %v", st, holders)
	}
}

// TestEvictKeepsResidentCopy: an eviction notice that arrives after the
// node re-filled the block (Resident says so) must not drop the new
// copy's registration; once the copy is really gone it does.
func TestEvictKeepsResidentCopy(t *testing.T) {
	d := mustDir(t, 64, 16)
	resident := true
	d.Resident = func(node NodeID, block int64) bool { return node == 1 && block == 2 && resident }
	if _, err := d.AcquireRead(1, 128); err != nil {
		t.Fatal(err)
	}
	d.Evict(1, 128)
	if st, holders := d.StateOf(128); st != Shared || !slices.Equal(holders, []NodeID{1}) {
		t.Fatalf("notice for a re-filled copy dropped it: %v %v", st, holders)
	}
	resident = false
	d.Evict(1, 128)
	if n := d.TrackedBlocks(); n != 0 {
		t.Fatalf("notice for a gone copy left %d blocks tracked", n)
	}
}

func TestConcurrentAcquire(t *testing.T) {
	d := mustDir(t, 64, 1024)
	var wg sync.WaitGroup
	for n := 0; n < 8; n++ {
		n := NodeID(n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 200; i++ {
				if i%3 == 0 {
					if _, err := d.AcquireWrite(n, (i%32)*64); err != nil {
						t.Error(err)
						return
					}
				} else {
					if _, err := d.AcquireRead(n, (i%32)*64); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	// Invariant: every tracked block has consistent state/holders.
	for i := int64(0); i < 32; i++ {
		st, holders := d.StateOf(i * 64)
		switch st {
		case Modified:
			if len(holders) != 1 {
				t.Fatalf("modified block with %d holders", len(holders))
			}
		case Shared:
			if len(holders) == 0 {
				t.Fatalf("shared block with no holders")
			}
		}
	}
}

func TestTicketLockMutualExclusionAndFairness(t *testing.T) {
	d := mustDir(t, 64, 64)
	l := NewTicketLock(d, 0)
	var held int32
	var max int32
	counter := 0
	var wg sync.WaitGroup
	var mu sync.Mutex
	for n := 0; n < 6; n++ {
		n := NodeID(n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := l.Lock(n); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				held++
				if held > max {
					max = held
				}
				counter++
				held--
				mu.Unlock()
				if err := l.Unlock(n); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if max != 1 {
		t.Fatalf("max concurrent holders = %d", max)
	}
	if counter != 300 {
		t.Fatalf("counter = %d, want 300", counter)
	}
	if d.Stats().Invalidations == 0 {
		t.Fatal("lock contention produced no coherence traffic")
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Modified.String() != "M" {
		t.Fatal("state strings")
	}
	if State(9).String() == "" {
		t.Fatal("unknown state string empty")
	}
}

func TestOnBackInvalidateCallback(t *testing.T) {
	d := mustDir(t, 64, 2)
	var gotBlock int64 = -1
	var gotHolders []NodeID
	d.OnBackInvalidate = func(block int64, holders []NodeID) {
		gotBlock = block
		gotHolders = append([]NodeID(nil), holders...)
	}
	// Fill the filter with blocks 0 and 1, block 0 shared by two nodes.
	if _, err := d.AcquireRead(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AcquireRead(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AcquireRead(0, 64); err != nil {
		t.Fatal(err)
	}
	// Admitting block 2 must evict the LRU victim (block 0) and report
	// both of its holders so their caches can drop the copies.
	if _, err := d.AcquireRead(2, 128); err != nil {
		t.Fatal(err)
	}
	if gotBlock != 0 {
		t.Fatalf("back-invalidated block %d want 0", gotBlock)
	}
	if len(gotHolders) != 2 {
		t.Fatalf("holders %v want nodes 0 and 1", gotHolders)
	}
	seen := map[NodeID]bool{}
	for _, h := range gotHolders {
		seen[h] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("holders %v want nodes 0 and 1", gotHolders)
	}
}

// TestWriteNoAllocate pins the write of a node that does not cache on a
// write: it kills every other holder, keeps the writer only if it held a
// copy, and never admits a block or counts a fetch.
func TestWriteNoAllocate(t *testing.T) {
	type acquire struct {
		node  NodeID
		write bool
	}
	for _, tc := range []struct {
		name      string
		setup     []acquire // on block 0, in order, before node 0 writes it
		killed    []NodeID
		holds     bool
		state     State
		tracked   int
		inval, wb uint64
		hits      uint64
		// A later read by node 3 writes back the Modified copy node 0 kept.
		readWritesBack bool
	}{
		{name: "untracked"},
		{name: "tracked, writer holds a copy", setup: []acquire{{0, false}, {1, false}, {2, false}},
			killed: []NodeID{1, 2}, holds: true, state: Modified, tracked: 1, inval: 2, readWritesBack: true},
		{name: "tracked, writer holds none", setup: []acquire{{1, false}, {2, false}},
			killed: []NodeID{1, 2}, inval: 2},
		{name: "Modified by another node", setup: []acquire{{1, true}},
			killed: []NodeID{1}, inval: 1, wb: 1},
		{name: "Modified by the writer", setup: []acquire{{0, true}},
			holds: true, state: Modified, tracked: 1, hits: 1, readWritesBack: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := mustDir(t, 64, 16)
			for _, a := range tc.setup {
				var err error
				if a.write {
					_, err = d.AcquireWrite(a.node, 0)
				} else {
					_, err = d.AcquireRead(a.node, 0)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			before := d.Stats()
			killed, holds := d.WriteNoAllocate(0, 8)
			slices.Sort(killed)
			if !slices.Equal(killed, tc.killed) || holds != tc.holds {
				t.Fatalf("WriteNoAllocate = %v, %t; want %v, %t", killed, holds, tc.killed, tc.holds)
			}
			var wantHolders []NodeID
			if tc.holds {
				wantHolders = []NodeID{0}
			}
			if st, holders := d.StateOf(0); st != tc.state || !slices.Equal(holders, wantHolders) {
				t.Fatalf("block after the write: %v %v", st, holders)
			}
			if n := d.TrackedBlocks(); n != tc.tracked {
				t.Fatalf("directory tracks %d blocks, want %d", n, tc.tracked)
			}
			after := d.Stats()
			want := before
			want.Invalidations += tc.inval
			want.Writebacks += tc.wb
			want.Hits += tc.hits
			if after != want {
				t.Fatalf("stats %+v, want %+v", after, want)
			}
			// A copy that exists is written back when another node reads
			// it; one that never existed is not.
			if _, err := d.AcquireRead(3, 0); err != nil {
				t.Fatal(err)
			}
			if got := d.Stats().Writebacks - after.Writebacks; (got > 0) != tc.readWritesBack {
				t.Fatalf("read after the write counted %d writebacks, want one only if node 0 kept a copy", got)
			}
		})
	}
}
