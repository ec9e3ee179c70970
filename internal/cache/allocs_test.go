package cache

import (
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"testing"
)

// The guards below pin the steady state of the paths a cold workload
// runs all day: Put, Invalidate and the write combiner's Add allocate
// nothing once growth into retained capacity has reached its high-water
// mark. DESIGN.md's "Allocation guards" lists the guard of each
// allocation-free function; ReadAt and WriteAt are run by core's.

// TestPutEvictAllocFree: once every ring slot has been used, admitting a
// new page evicts through the clock, the index and the ghost list
// without allocating, and the data is copied, not kept. 100 pages over
// four shards gives each shard a capacity that is not a power of two.
func TestPutEvictAllocFree(t *testing.T) {
	for _, pages := range []uint64{64, 100} {
		c := newTest(t, int(pages), 4)
		page := pageData(c.PageSize(), 1)
		next := uint64(0)
		// Two capacities' worth: every slot has its buffer and every ghost
		// list is full.
		for ; next < 2*pages; next++ {
			c.Put(next, page)
		}
		before := c.Stats()
		if n := testing.AllocsPerRun(10, func() {
			for i := 0; i < 1000; i++ {
				// Every third page comes back off the ghost list (admitted hot).
				pg := next
				if i%3 == 0 {
					pg = next - pages - 8
				}
				c.Put(pg, page)
				next++
			}
		}); n != 0 {
			t.Errorf("%d pages: Put with eviction allocates %.0f per 1000 ops, want 0", pages, n)
		}
		after := c.Stats()
		if after.Evictions-before.Evictions < 10_000 || after.GhostReadmits == before.GhostReadmits {
			t.Fatalf("%d pages: measured loop was not the evict path: %+v -> %+v", pages, before, after)
		}
	}
}

// TestCacheGrowthStopsAtEagerSize: a shard's index, ring and ghost list
// grow with use and, once full, are no larger than sizing them for the
// shard's capacity up front would have made them — also when that
// capacity is not a power of two. hashtab's storage is unexported, so
// its sizes are read by reflection.
func TestCacheGrowthStopsAtEagerSize(t *testing.T) {
	slotsOf := func(table reflect.Value) int { return table.FieldByName("slots").Len() }
	for _, pages := range []int{64, 100} {
		c := newTest(t, pages, 4)
		page := pageData(c.PageSize(), 1)
		for pg := uint64(0); pg < uint64(2*pages); pg++ {
			c.Put(pg, page)
		}
		for i := range c.shards {
			sh := &c.shards[i]
			slots := 8 // a table sized for cap entries at ≤50% load
			for slots < 2*sh.cap {
				slots *= 2
			}
			ghost := reflect.ValueOf(&sh.ghost).Elem()
			got := [4]int{slotsOf(reflect.ValueOf(&sh.index).Elem()), cap(sh.ring), ghost.FieldByName("nodes").Cap(), slotsOf(ghost.FieldByName("index"))}
			if want := [4]int{slots, sh.cap, sh.cap, slots}; got[0] > want[0] || got[1] > want[1] || got[2] > want[2] || got[3] > want[3] {
				t.Errorf("%d pages, shard %d: index slots, ring, ghost nodes, ghost slots = %v, eager sizing built %v", pages, i, got, want)
			}
			if len(sh.ring) != sh.cap || sh.ghost.Len() != sh.cap {
				t.Fatalf("%d pages, shard %d: two capacities of Puts left %d slots used and %d ghosts, want %d", pages, i, len(sh.ring), sh.ghost.Len(), sh.cap)
			}
		}
	}
}

// TestCacheNewAllocatesLittle: a cache nobody fills costs its shard
// headers and nothing that scales with its capacity. TotalAlloc counts
// every goroutine of the process, and those that earlier tests leave
// running would count too, so the measurement runs in a fresh copy of
// the test binary that runs nothing else.
func TestCacheNewAllocatesLittle(t *testing.T) {
	const child = "LMP_CACHE_NEW_ALLOC_CHILD"
	if os.Getenv(child) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCacheNewAllocatesLittle$", "-test.count=1")
		cmd.Env = append(os.Environ(), child+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("the measuring process: %v\n%s", err, out)
		}
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := New(Config{CapacityBytes: 16 << 20})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 8<<10 {
		t.Errorf("New of a 16 MiB cache allocated %d B, want under 8 KiB", n)
	}
	runtime.KeepAlive(c)
}

// TestInvalidateRePutAllocFree: an invalidated slot goes on the free
// list and comes back with its buffer.
func TestInvalidateRePutAllocFree(t *testing.T) {
	const pages = 64
	c := newTest(t, pages, 4)
	page := pageData(c.PageSize(), 2)
	for pg := uint64(0); pg < pages; pg++ {
		c.Put(pg, page)
	}
	if n := testing.AllocsPerRun(10, func() {
		for pg := uint64(0); pg < pages; pg++ {
			if !c.Invalidate(pg) {
				t.Fatalf("page %d was not resident", pg)
			}
		}
		for pg := uint64(0); pg < pages; pg++ {
			c.Put(pg, page)
		}
	}); n != 0 {
		t.Errorf("Invalidate then Put allocates %.0f per %d pages, want 0", n, pages)
	}
	if st := c.Stats(); st.Evictions != 0 || st.Pages != pages {
		t.Fatalf("measured loop evicted: %+v", st)
	}
}

// TestWCFlushCycleAllocFree: a full threshold cycle — 128 buffered
// writes, half of them abutting so the coalescer merges, then the flush
// — reuses the entries, both arenas, the page index and the flush
// scratch of the cycles before it.
func TestWCFlushCycleAllocFree(t *testing.T) {
	w := NewWriteCombiner(4096, 0, 0)
	data := make([]byte, 256)
	base := uint64(0)
	cycle := func() {
		for i := uint64(0); i < 128; i++ {
			// Pairs of abutting writes, pairs far apart; every 16th write
			// straddles a page boundary.
			a := base + (i/2)*3*4096 + (i%2)*256
			if i%16 == 0 {
				a += 4096 - 128
			}
			if ok, _ := w.Add(int(i/2%3), a, data); !ok {
				t.Fatalf("Add %d refused", i)
			}
		}
		batch := w.BeginFlushCoalesced()
		if len(batch) >= 128 || len(batch) == 0 {
			t.Fatalf("coalesced batch has %d runs", len(batch))
		}
		w.EndFlush()
		base += 1 << 30
	}
	// Both arenas and the merge buffer reach their size within two cycles.
	cycle()
	cycle()
	// AllocsPerRun averages, and a buffer that doubles for ever allocates
	// ever more rarely: pin the retained sizes as well as the count.
	sizes := func() [6]int {
		return [6]int{cap(w.arenas[0]), cap(w.arenas[1]), cap(w.merge), cap(w.out), len(w.ents), len(w.links)}
	}
	before := sizes()
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("Add x128, BeginFlushCoalesced, EndFlush allocates %.0f per cycle, want 0", n)
	}
	if after := sizes(); after != before {
		t.Errorf("retained storage (arenas, merge, out, entries, links) grew from %v to %v over 20 cycles", before, after)
	}
	if w.PendingCount() != 0 || w.live.Load() != 0 {
		t.Fatalf("cycle left %d pending, %d live", w.PendingCount(), w.live.Load())
	}
}
