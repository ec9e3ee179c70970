package coherence

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// fullDirectory returns a directory with every one of its capacity
// filter entries taken (blocks 0..capacity-1, acquired in that order by
// node 0) and the index of the next untracked block.
func fullDirectory(tb testing.TB, capacity int) (*Directory, int64) {
	d, err := NewDirectory(4096, capacity)
	if err != nil {
		tb.Fatal(err)
	}
	for b := int64(0); b < int64(capacity); b++ {
		if _, err := d.AcquireRead(0, b*4096); err != nil {
			tb.Fatal(err)
		}
	}
	return d, int64(capacity)
}

// TestBackInvalidationOrderIsExactLRU: at capacity the victim is always
// the least recently acquired block, whatever mix of reads, writes and
// re-acquisitions produced the order.
func TestBackInvalidationOrderIsExactLRU(t *testing.T) {
	const capacity = 64
	d, next := fullDirectory(t, capacity)
	var victims []int64
	d.OnBackInvalidate = func(block int64, _ []NodeID) { victims = append(victims, block) }
	// The model: tracked blocks, least recently acquired first.
	order := make([]int64, capacity)
	for i := range order {
		order[i] = int64(i)
	}
	rng := rand.New(rand.NewSource(11))
	var want []int64
	for op := 0; op < 20_000; op++ {
		var b int64
		if rng.Intn(3) == 0 {
			b = next // untracked: forces a back-invalidation
			next++
			want = append(want, order[0])
			order = order[1:]
		} else {
			i := rng.Intn(len(order)) // tracked: moves to most recent
			b = order[i]
			order = append(order[:i], order[i+1:]...)
		}
		order = append(order, b)
		var err error
		if node := NodeID(rng.Intn(3)); rng.Intn(2) == 0 {
			_, err = d.AcquireRead(node, b*4096)
		} else {
			_, err = d.AcquireWrite(node, b*4096)
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(victims) != len(want) || (len(want) > 0 && victims[len(victims)-1] != want[len(want)-1]) {
			t.Fatalf("op %d: back-invalidated %v, least recently acquired was %v", op, victims[max(0, len(victims)-3):], want[max(0, len(want)-3):])
		}
	}
	if d.TrackedBlocks() != capacity {
		t.Fatalf("filter holds %d blocks, capacity %d", d.TrackedBlocks(), capacity)
	}
}

// TestAtCapacityMissIsConstantTimeAndAllocFree: admitting a new block
// into a full filter recycles the victim's entry — no allocation — and
// finds the victim without looking at the other entries, so a filter 64
// times larger costs about the same per miss (the bound is loose: the
// larger one misses the CPU caches; walking it would cost ~64x).
func TestAtCapacityMissIsConstantTimeAndAllocFree(t *testing.T) {
	perMiss := func(capacity int) time.Duration {
		d, next := fullDirectory(t, capacity)
		d.OnBackInvalidate = func(int64, []NodeID) {}
		miss := func() {
			if _, err := d.AcquireRead(1, next*4096); err != nil {
				t.Fatal(err)
			}
			next++
		}
		// One lap of the filter first, so every entry is a recycled one.
		for i := 0; i < capacity; i++ {
			miss()
		}
		if n := testing.AllocsPerRun(1000, miss); n != 0 {
			t.Errorf("capacity %d: a miss on a full filter allocates %.1f, want 0", capacity, n)
		}
		best := time.Duration(1 << 62)
		for trial := 0; trial < 5; trial++ {
			const misses = 2000
			start := time.Now()
			for i := 0; i < misses; i++ {
				miss()
			}
			best = min(best, time.Since(start)/misses)
		}
		return best
	}
	small, large := perMiss(1<<10), perMiss(1<<16)
	t.Logf("miss on a full filter: %v at 1 Ki entries, %v at 64 Ki", small, large)
	if large > 8*small+time.Microsecond {
		t.Errorf("a miss costs %v at 64 Ki entries against %v at 1 Ki: victim selection is not O(1)", large, small)
	}
}

// BenchmarkAcquireReadAtCapacity is the same miss as a benchmark: ns/op
// at 1 Ki and 64 Ki entries should be within a small factor, B/op zero.
func BenchmarkAcquireReadAtCapacity(b *testing.B) {
	for _, capacity := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("entries-%d", capacity), func(b *testing.B) {
			d, next := fullDirectory(b, capacity)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.AcquireRead(1, next*4096); err != nil {
					b.Fatal(err)
				}
				next++
			}
		})
	}
}

// TestBackInvalidationAllocFree: a directory smaller than the working set
// of the node using it back-invalidates on most admissions. With the
// page cache's mix — read misses, write-no-allocates on a block the node
// holds and on one it does not, eviction notices — plus write-allocates,
// cycling over four times its capacity, nothing allocates once every
// filter entry has been recycled.
func TestBackInvalidationAllocFree(t *testing.T) {
	const capacity, blocks = 64, 4 * 64
	d, _ := fullDirectory(t, capacity)
	d.OnBackInvalidate = func(int64, []NodeID) {}
	d.Resident = func(NodeID, int64) bool { return false }
	i := int64(0)
	blk := func(k int64) int64 { return (k * 37 % blocks) * 4096 } // 37 is coprime to blocks
	op := func() {
		var err error
		switch i % 4 {
		case 0:
			_, err = d.AcquireRead(0, blk(i))
		case 1:
			_, err = d.AcquireWrite(0, blk(i))
		case 2:
			if _, holds := d.WriteNoAllocate(0, blk(i-2)); !holds { // read at i-2
				t.Fatalf("op %d: node 0 lost the block it read", i)
			}
		case 3:
			d.WriteNoAllocate(0, blk(i))
			d.Evict(0, blk(i-3))
		}
		if err != nil {
			t.Fatal(err)
		}
		i++
	}
	for i < 4*blocks {
		op()
	}
	before := d.Stats()
	const runs, opsPerRun = 20, 100
	if n := testing.AllocsPerRun(runs, func() {
		for k := 0; k < opsPerRun; k++ {
			op()
		}
	}); n != 0 {
		t.Errorf("%d ops on a full directory allocate %.0f, want 0", opsPerRun, n)
	}
	if got := d.Stats().BackInvalidates - before.BackInvalidates; got < (runs+1)*opsPerRun/8 {
		t.Errorf("measured loop back-invalidated %d blocks in %d ops: the directory was not full", got, (runs+1)*opsPerRun)
	}
}
