package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func pageData(ps int64, tag byte) []byte {
	d := make([]byte, ps)
	for i := range d {
		d[i] = tag
	}
	return d
}

func newTest(t *testing.T, pages int, shards int) *Cache {
	t.Helper()
	c, err := New(Config{CapacityBytes: int64(pages) * 64, PageSize: 64, Shards: shards})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestCacheBasicPutGet(t *testing.T) {
	c := newTest(t, 8, 1)
	if got := c.ReadAt(3, make([]byte, 8), 0); got {
		t.Fatal("hit on empty cache")
	}
	c.Put(3, pageData(64, 0xAB))
	dst := make([]byte, 8)
	if !c.ReadAt(3, dst, 16) {
		t.Fatal("miss after Put")
	}
	for _, b := range dst {
		if b != 0xAB {
			t.Fatalf("read %x want AB", b)
		}
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 || st.Pages != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCacheWriteAtUpdatesResidentOnly(t *testing.T) {
	c := newTest(t, 4, 1)
	if c.WriteAt(9, []byte{1}, 0) {
		t.Fatal("WriteAt admitted a page")
	}
	c.Put(9, pageData(64, 0))
	if !c.WriteAt(9, []byte{7, 7}, 10) {
		t.Fatal("WriteAt missed resident page")
	}
	dst := make([]byte, 3)
	c.ReadAt(9, dst, 9)
	if dst[0] != 0 || dst[1] != 7 || dst[2] != 7 {
		t.Fatalf("got %v", dst)
	}
}

func TestCacheEvictionPrefersCold(t *testing.T) {
	// Capacity 4 pages, one shard. Make pages 0,1 hot via resident
	// re-reference, then stream 2..9: the hot pages must survive.
	c := newTest(t, 4, 1)
	for p := uint64(0); p < 4; p++ {
		c.Put(p, pageData(64, byte(p)))
	}
	for i := 0; i < 3; i++ {
		c.ReadAt(0, make([]byte, 1), 0)
		c.ReadAt(1, make([]byte, 1), 0)
	}
	for p := uint64(4); p < 10; p++ {
		c.Put(p, pageData(64, byte(p)))
	}
	if !c.ReadAt(0, make([]byte, 1), 0) || !c.ReadAt(1, make([]byte, 1), 0) {
		t.Fatalf("hot pages evicted by cold stream; resident=%d", c.Len())
	}
	if c.Len() != 4 {
		t.Fatalf("resident %d want 4", c.Len())
	}
	if ev := c.Stats().Evictions; ev == 0 {
		t.Fatal("expected evictions")
	}
}

func TestCacheGhostReadmitIsHot(t *testing.T) {
	c := newTest(t, 2, 1)
	c.Put(1, pageData(64, 1))
	c.Put(2, pageData(64, 2))
	c.Put(3, pageData(64, 3)) // evicts one of 1,2 → ghost
	// Find the evicted page and re-admit it.
	var evicted uint64
	for _, p := range []uint64{1, 2} {
		if !c.ReadAt(p, make([]byte, 1), 0) {
			evicted = p
		}
	}
	if evicted == 0 {
		t.Fatal("nothing evicted")
	}
	c.Put(evicted, pageData(64, 9))
	if c.Stats().GhostReadmits != 1 {
		t.Fatalf("readmits %d want 1", c.Stats().GhostReadmits)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := newTest(t, 8, 2)
	for p := uint64(0); p < 6; p++ {
		c.Put(p, pageData(64, byte(p)))
	}
	if !c.Invalidate(3) {
		t.Fatal("Invalidate(3) found nothing")
	}
	if c.Invalidate(3) {
		t.Fatal("double invalidate reported resident")
	}
	if c.ReadAt(3, make([]byte, 1), 0) {
		t.Fatal("read hit after invalidate")
	}
	n := 0
	for p := uint64(0); p < 6; p++ {
		if c.Invalidate(p) {
			n++
		}
	}
	if n != 5 {
		t.Fatalf("invalidating pages 0-5 removed %d want 5", n)
	}
	if c.Len() != 0 {
		t.Fatalf("resident %d want 0", c.Len())
	}
	// Slots must be reusable after invalidation.
	for p := uint64(10); p < 16; p++ {
		c.Put(p, pageData(64, byte(p)))
	}
	if c.Len() != 6 {
		t.Fatalf("resident %d want 6 after refill", c.Len())
	}
}

func TestCacheInvalidateAllForgetsGhosts(t *testing.T) {
	c := newTest(t, 2, 1)
	c.Put(1, pageData(64, 1))
	c.Put(2, pageData(64, 2))
	c.Put(3, pageData(64, 3)) // pushes a ghost
	if n := c.InvalidateAll(); n != 2 {
		t.Fatalf("InvalidateAll removed %d want 2", n)
	}
	c.Put(1, pageData(64, 1))
	c.Put(2, pageData(64, 2))
	if c.Stats().GhostReadmits != 0 {
		t.Fatal("ghost list survived InvalidateAll")
	}
}

func TestCacheDrainHits(t *testing.T) {
	c := newTest(t, 8, 2)
	c.Put(4, pageData(64, 4))
	c.Put(5, pageData(64, 5))
	for i := 0; i < 3; i++ {
		c.ReadAt(4, make([]byte, 1), 0)
	}
	c.ReadAt(5, make([]byte, 1), 0)
	got := map[uint64]uint64{}
	c.DrainHits(func(page, hits uint64) { got[page] = hits })
	if got[4] != 3 || got[5] != 1 {
		t.Fatalf("drained %v", got)
	}
	got = map[uint64]uint64{}
	c.DrainHits(func(page, hits uint64) { got[page] = hits })
	if len(got) != 0 {
		t.Fatalf("second drain returned %v", got)
	}
}

func TestCacheZeroCapacity(t *testing.T) {
	c, err := New(Config{CapacityBytes: 0, PageSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	// The page the call leaves non-resident is the page itself.
	if victim, evicted := c.Put(1, pageData(64, 1)); !evicted || victim != 1 {
		t.Fatalf("zero-capacity Put reported (%d, %t), want (1, true)", victim, evicted)
	}
	if c.ReadAt(1, make([]byte, 1), 0) {
		t.Fatal("zero-capacity cache admitted a page")
	}
}

// TestPutReportsVictim: every page Put evicts is reported, exactly once,
// and is no longer resident; Contains agrees with the index without
// counting a lookup or setting a reference bit.
func TestPutReportsVictim(t *testing.T) {
	const pages = 8
	c := newTest(t, pages, 2)
	resident := map[uint64]bool{}
	for p := uint64(0); p < 5*pages; p++ {
		// Every third page is put twice: the second Put finds it resident.
		for range 1 + p%3/2 {
			victim, evicted := c.Put(p, pageData(64, byte(p)))
			if evicted {
				if !resident[victim] || victim == p {
					t.Fatalf("Put(%d) reported victim %d, which was not resident", p, victim)
				}
				delete(resident, victim)
			}
			resident[p] = true
			if len(resident) != c.Len() {
				t.Fatalf("after Put(%d): %d resident, %d by the reported victims", p, c.Len(), len(resident))
			}
		}
	}
	before := c.Stats()
	for p := uint64(0); p < 5*pages; p++ {
		if c.Contains(p) != resident[p] {
			t.Fatalf("Contains(%d) = %t, want %t", p, c.Contains(p), resident[p])
		}
	}
	if after := c.Stats(); after != before {
		t.Fatalf("Contains changed the stats: %+v -> %+v", before, after)
	}
}

func TestCacheRejectsBadPageSize(t *testing.T) {
	if _, err := New(Config{CapacityBytes: 1024, PageSize: 100}); err == nil {
		t.Fatal("accepted non-power-of-two page size")
	}
}

func TestCacheShardCountBoundedByPages(t *testing.T) {
	// 2 pages of capacity cannot support 16 shards; shard count must
	// shrink so each shard holds at least one page.
	c, err := New(Config{CapacityBytes: 128, PageSize: 64, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(0, pageData(64, 1))
	c.Put(1, pageData(64, 2))
	if c.Len() == 0 {
		t.Fatal("no pages admitted")
	}
}

// TestCacheStatsMonotone: snapshots taken while other goroutines look
// pages up, fill them (evicting) and drain hit counts never report a
// counter below an earlier snapshot's. DrainHits and eviction move a
// live entry's hits into a folded total; a snapshot that read that total
// before walking the entries lost whatever was folded in between. Run it
// under -race.
func TestCacheStatsMonotone(t *testing.T) {
	const pages, working, snapshots = 64, 80, 50_000
	c := newTest(t, pages, 4)
	var stop atomic.Bool
	var wg sync.WaitGroup
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			page := pageData(c.PageSize(), byte(r))
			dst := make([]byte, 8)
			for !stop.Load() {
				if pg := uint64(rng.Intn(working)); !c.ReadAt(pg, dst, 0) {
					c.Put(pg, page)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			c.DrainHits(func(uint64, uint64) {})
		}
	}()
	// Snapshot until the readers have hit, missed and evicted, not for a
	// fixed count alone: on a loaded machine the snapshots can finish
	// before the readers are first scheduled.
	deadline := time.Now().Add(10 * time.Second)
	prev := c.Stats()
	for i := 0; i < snapshots || prev.Hits == 0 || prev.Misses == 0 || prev.Evictions == 0; i++ {
		st := c.Stats()
		if st.Hits < prev.Hits || st.Misses < prev.Misses || st.Evictions < prev.Evictions {
			t.Fatalf("snapshot %d went backwards: %+v -> %+v", i, prev, st)
		}
		prev = st
		if time.Now().After(deadline) {
			t.Fatalf("the readers did not hit, miss and evict in 10 s: %+v", prev)
		}
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := newTest(t, 128, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 8)
			for i := 0; i < 2000; i++ {
				p := uint64((g*31 + i) % 200)
				switch i % 4 {
				case 0:
					c.Put(p, pageData(64, byte(p)))
				case 1:
					if c.ReadAt(p, buf, 0) && buf[0] != byte(p) {
						panic(fmt.Sprintf("stale page %d: %d", p, buf[0]))
					}
				case 2:
					c.WriteAt(p, []byte{byte(p)}, 0)
				case 3:
					c.Invalidate(p)
				}
			}
		}(g)
	}
	wg.Wait()
	c.DrainHits(func(uint64, uint64) {})
	c.Each(func(page uint64, data []byte) {
		if data[0] != byte(page) {
			t.Errorf("page %d holds %d", page, data[0])
		}
	})
}
