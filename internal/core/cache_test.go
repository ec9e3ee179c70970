package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/failure"
)

// newCachedPool builds a two-server pool with the page cache enabled and
// every buffer placed on server 0 (FirstFit), so server 1's accesses are
// remote.
func newCachedPool(t *testing.T, cc CacheConfig) *Pool {
	t.Helper()
	cc.Enabled = true
	if cc.CapacityBytes == 0 {
		cc.CapacityBytes = 1 << 20
	}
	p, err := New(Config{
		Servers: []ServerConfig{
			{Name: "a", Capacity: 64 << 20, SharedBytes: 32 << 20},
			{Name: "b", Capacity: 64 << 20, SharedBytes: 32 << 20},
		},
		Cache: cc,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCachedWriteRacesMigration: a small cached write reads the slice's
// owner to decide whether the write combiner takes it, while a migration
// rewrites the owner under the slice's stripe lock. The write must read
// it under that lock too; run it under -race.
func TestCachedWriteRacesMigration(t *testing.T) {
	p := newCachedPool(t, CacheConfig{})
	b, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	done := make(chan error, 1)
	go func() {
		data := make([]byte, 8)
		for !stop.Load() {
			if err := p.Write(1, b.Addr(), data); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	s := addr.SliceOf(b.Addr())
	for i := 0; i < 40; i++ {
		if err := p.MigrateSlice(s, addr.ServerID(1-i%2)); err != nil {
			t.Error(err)
			break
		}
	}
	stop.Store(true)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestCachedReadHitsAndWriteInvalidates(t *testing.T) {
	p := newCachedPool(t, CacheConfig{})
	b, err := p.Alloc(1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{7}, 256)
	if err := p.Write(0, b.Addr(), want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 256)
	for i := 0; i < 4; i++ {
		if err := p.Read(1, b.Addr(), got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: read %v", i, got[:8])
		}
	}
	st := p.CacheStats()
	if st.Hits < 3 {
		t.Fatalf("expected >=3 cache hits, got %+v", st)
	}
	if st.Fills == 0 || st.Pages == 0 {
		t.Fatalf("no fills recorded: %+v", st)
	}
	// The owner overwrites the page: server 1's cached copy must die.
	want2 := bytes.Repeat([]byte{9}, 256)
	if err := p.Write(0, b.Addr(), want2); err != nil {
		t.Fatal(err)
	}
	if err := p.Read(1, b.Addr(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want2) {
		t.Fatalf("stale read after invalidation: %v", got[:8])
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCachedReadDoesNotCacheLocalPages(t *testing.T) {
	p := newCachedPool(t, CacheConfig{})
	b, err := p.Alloc(1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	for i := 0; i < 4; i++ {
		if err := p.Read(0, b.Addr(), got); err != nil { // owner reads its own slice
			t.Fatal(err)
		}
	}
	if st := p.CacheStats(); st.Pages != 0 || st.Hits != 0 {
		t.Fatalf("local reads populated the cache: %+v", st)
	}
}

func TestWriteCombinerBufferedWritesVisibleAndFlushed(t *testing.T) {
	p := newCachedPool(t, CacheConfig{})
	b, err := p.Alloc(1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3, 4}
	if err := p.Write(1, b.Addr()+8, want); err != nil { // small remote write → buffered
		t.Fatal(err)
	}
	if st := p.CacheStats(); st.PendingWrites != 1 || st.WCWrites != 1 {
		t.Fatalf("write not buffered: %+v", st)
	}
	// Visible to a direct read by the owner and a cached read by anyone.
	got := make([]byte, 4)
	if err := p.Read(0, b.Addr()+8, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("owner read missed buffered write: %v", got)
	}
	if err := p.Read(1, b.Addr()+8, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("issuer read missed buffered write: %v", got)
	}
	if err := p.FlushWriteCombining(); err != nil {
		t.Fatal(err)
	}
	st := p.CacheStats()
	if st.PendingWrites != 0 || st.Flushes == 0 || st.FlushedBytes != 4 {
		t.Fatalf("flush bookkeeping: %+v", st)
	}
	if err := p.Read(0, b.Addr()+8, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("flushed bytes lost: %v", got)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteCombinerSurvivesOwnerCrash(t *testing.T) {
	p := newCachedPool(t, CacheConfig{})
	prot := failure.Policy{Scheme: failure.Replicate, Copies: 2}
	b, err := p.AllocProtected(1<<20, 0, prot)
	if err != nil {
		t.Fatal(err)
	}
	seed := bytes.Repeat([]byte{5}, 4096)
	if err := p.Write(0, b.Addr(), seed); err != nil {
		t.Fatal(err)
	}
	want := []byte{42, 43}
	if err := p.Write(1, b.Addr()+10, want); err != nil { // buffered
		t.Fatal(err)
	}
	if err := p.Crash(0); err != nil {
		t.Fatal(err)
	}
	// The buffered write must survive the crash of the backing owner:
	// reads compose it over the recovered replica, and the flush applies
	// it through recovery.
	got := make([]byte, 2)
	if err := p.Read(1, b.Addr()+10, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("buffered write lost after crash: %v", got)
	}
	if err := p.FlushWriteCombining(); err != nil {
		t.Fatal(err)
	}
	if err := p.Read(1, b.Addr()+10, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("flushed write lost after crash: %v", got)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReleasePurgesCacheAndPendingWrites(t *testing.T) {
	p := newCachedPool(t, CacheConfig{})
	b, err := p.Alloc(1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	seed := bytes.Repeat([]byte{3}, 4096)
	if err := p.Write(0, b.Addr(), seed); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	if err := p.Read(1, b.Addr(), got); err != nil { // populate server 1's cache
		t.Fatal(err)
	}
	if err := p.Write(1, b.Addr()+100, []byte{1}); err != nil { // pending write
		t.Fatal(err)
	}
	la := b.Addr()
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if st := p.CacheStats(); st.Pages != 0 || st.PendingWrites != 0 {
		t.Fatalf("release left cache/combiner state: %+v", st)
	}
	if err := p.Read(1, la, got); !errors.Is(err, ErrReleased) {
		t.Fatalf("read after release: %v", err)
	}
	// Reallocating the same logical range must read as zeros, not stale
	// cached bytes.
	b2, err := p.Alloc(1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Addr() != la {
		t.Fatalf("expected logical range reuse, got %v vs %v", b2.Addr(), la)
	}
	if err := p.Read(1, b2.Addr(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 64)) {
		t.Fatalf("stale bytes after realloc: %v", got[:8])
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCacheHitsFeedMigration(t *testing.T) {
	p := newCachedPool(t, CacheConfig{})
	p.migration = migrationPolicy{minAccesses: 50, hysteresis: 1, maxMoves: 8}
	b, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	// 100 reads from server 1; after the first fill they are cache hits
	// that never touch a backing counter. Only the drained hit counts can
	// clear MinAccesses=50.
	for i := 0; i < 100; i++ {
		if err := p.Read(1, b.Addr(), got); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := p.BalanceOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Migrated != 1 {
		t.Fatalf("cache hits did not drive promotion: %+v", rep)
	}
	owner, err := p.OwnerOf(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if owner != addr.ServerID(1) {
		t.Fatalf("slice not promoted to its reader: owner %d", owner)
	}
	// Post-migration the page is local to server 1: its stale cached
	// copies were dropped, and reads still see the right bytes.
	if err := p.Read(1, b.Addr(), got); err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestVectoredRespectsCombiner(t *testing.T) {
	p := newCachedPool(t, CacheConfig{})
	b, err := p.Alloc(1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(1, b.Addr()+4, []byte{1, 1}); err != nil { // buffered
		t.Fatal(err)
	}
	// ReadV composes the overlay.
	got := make([]byte, 8)
	if err := p.ReadV(1, []Vec{{Addr: b.Addr(), Data: got}}); err != nil {
		t.Fatal(err)
	}
	if got[4] != 1 || got[5] != 1 {
		t.Fatalf("ReadV missed buffered write: %v", got)
	}
	// WriteV over the same range forces a flush first, so the older
	// buffered bytes cannot shadow the newer vectored write.
	if err := p.WriteV(1, []Vec{{Addr: b.Addr() + 4, Data: []byte{2, 2}}}); err != nil {
		t.Fatal(err)
	}
	if st := p.CacheStats(); st.PendingWrites != 0 {
		t.Fatalf("WriteV left overlapping pending writes: %+v", st)
	}
	if err := p.Read(0, b.Addr()+4, got[:2]); err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 || got[1] != 2 {
		t.Fatalf("vectored write shadowed by stale buffer: %v", got[:2])
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOwnerWritesKeepRemoteCachedPage: a write to a page nobody caches
// registers nothing. Server 1 caches one page of server 0's buffer, then
// the owner writes twice the directory's capacity of its own uncached
// pages; server 1's copy must survive and hit. At c37e317 each of those
// writes admitted a Modified entry and the filter back-invalidated the
// cached page.
func TestOwnerWritesKeepRemoteCachedPage(t *testing.T) {
	p := newCachedPool(t, CacheConfig{}) // 2 x 256 cached pages: the directory tracks 1024
	const pageSize = 4096
	b, err := p.Alloc(4*SliceSize, 0) // 2048 pages owned by server 0
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	if err := p.Read(1, b.Addr(), got); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(0, b.Addr()+pageSize, make([]byte, 4*SliceSize-pageSize)); err != nil {
		t.Fatal(err)
	}
	hits := p.CacheStats().Hits
	if err := p.Read(1, b.Addr(), got); err != nil {
		t.Fatal(err)
	}
	if p.CacheStats().Hits != hits+1 {
		t.Errorf("server 1's cached page was lost to the owner's writes of other pages (%d back-invalidations)",
			p.PageDirectory().Stats().BackInvalidates)
	}
	if n := p.PageDirectory().TrackedBlocks(); n != 1 {
		t.Errorf("directory tracks %d pages, 1 is cached", n)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseDropsRegistrations: the copies Release purges leave the
// page directory with them, including one the reader wrote through.
func TestReleaseDropsRegistrations(t *testing.T) {
	p := newCachedPool(t, CacheConfig{})
	b, err := p.Alloc(1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	for off := int64(0); off < 16*4096; off += 4096 {
		if err := p.Read(1, b.Addr()+addr.Logical(off), got); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Write(1, b.Addr()+100, []byte{1}); err != nil { // buffered, on a cached page
		t.Fatal(err)
	}
	if n := p.PageDirectory().TrackedBlocks(); n != 16 {
		t.Fatalf("directory tracks %d pages before Release, 16 are cached", n)
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if n := p.PageDirectory().TrackedBlocks(); n != 0 {
		t.Errorf("directory tracks %d pages of a released buffer", n)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMigrationDropsReaderRegistration: a slice promoted to its cached
// reader is local to it, so the reader's copies are dropped — and so are
// its registrations.
func TestMigrationDropsReaderRegistration(t *testing.T) {
	p := newCachedPool(t, CacheConfig{})
	p.migration = migrationPolicy{minAccesses: 50, hysteresis: 1, maxMoves: 8}
	b, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	for i := 0; i < 100; i++ {
		if err := p.Read(1, b.Addr(), got); err != nil {
			t.Fatal(err)
		}
	}
	if rep, err := p.BalanceOnce(); err != nil || rep.Migrated != 1 {
		t.Fatalf("BalanceOnce = %+v, %v; want one migration", rep, err)
	}
	if _, holders := p.PageDirectory().StateOf(int64(b.Addr())); len(holders) != 0 {
		t.Errorf("page of a slice now local to server 1 is still registered to %v", holders)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCacheEvictionNoticeRacesRefill: two goroutines fill as server 1
// over a working set larger than its cache, so the eviction notice of one
// fill races the other's re-fill of the same victim, while the owner
// writes versions into the pages. A notice that dropped a re-filled
// copy's registration would leave that copy out of reach of the next
// write: a later read would return an older version than one already
// written, and at the end of the round CheckInvariants would find a
// cached page the directory does not know. Run it under -race.
//
// The coverage floor holds on any schedule: at any moment at least one
// of the eight pages is not resident, so about one read in eight misses
// and its fill takes a slot that an eviction or an invalidation freed.
// A fast writer turns evictions into invalidations, so the floor is on
// their sum, plus at least one eviction in every round.
func TestCacheEvictionNoticeRacesRefill(t *testing.T) {
	const (
		pageSize = 4096
		cached   = 7 // pages in server 1's cache: few enough for one shard
		working  = 8 // pages the readers cycle over
		rounds   = 40
		reads    = 2500 // per reader per round
	)
	p := newCachedPool(t, CacheConfig{CapacityBytes: cached * pageSize})
	if n := cacheShards(cached); n != 1 {
		t.Fatalf("a %d-page cache has %d shards, want 1", cached, n)
	}
	b, err := p.Alloc(SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	var written [working]atomic.Uint64 // last version whose write returned
	version := uint64(0)
	fewest := ^uint64(0) // evictions in the round with the fewest
	for round := 0; round < rounds; round++ {
		before := p.CacheStats().Evictions
		var stop atomic.Bool
		errs := make(chan error, 3)
		writer := make(chan struct{})
		go func() {
			defer close(writer)
			rng := rand.New(rand.NewSource(int64(round)))
			data := make([]byte, 8)
			for !stop.Load() {
				version++
				pg := rng.Intn(working)
				binary.LittleEndian.PutUint64(data, version)
				// Each write holds the slice's stripe lock in write mode,
				// so both readers' pending fills resume together after it.
				if err := p.Write(0, b.Addr()+addr.Logical(pg*pageSize), data); err != nil {
					errs <- err
					return
				}
				written[pg].Store(version)
				runtime.Gosched()
			}
		}()
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				rng := rand.New(rand.NewSource(int64(2*round + r)))
				got := make([]byte, 8)
				for i := 0; i < reads; i++ {
					pg := rng.Intn(working)
					want := written[pg].Load()
					if err := p.Read(1, b.Addr()+addr.Logical(pg*pageSize), got); err != nil {
						errs <- err
						return
					}
					if v := binary.LittleEndian.Uint64(got); v < want {
						errs <- fmt.Errorf("round %d: page %d read at version %d, version %d was written before the read", round, pg, v, want)
						return
					}
				}
			}(r)
		}
		readers.Wait()
		stop.Store(true)
		<-writer
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		fewest = min(fewest, p.CacheStats().Evictions-before)
	}
	st := p.CacheStats()
	t.Logf("%d evictions (fewest in a round %d), %d invalidations", st.Evictions, fewest, st.Invalidations)
	if fewest == 0 || st.Invalidations == 0 || st.Evictions+st.Invalidations < rounds*reads/10 {
		t.Fatalf("the race was not run: %d evictions (fewest in a round %d), %d invalidations", st.Evictions, fewest, st.Invalidations)
	}
}
