package core

import (
	"bytes"
	"errors"
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
	p.cfg.Migration = MigrationPolicy{MinAccesses: 50, HysteresisFactor: 1, MaxMoves: 8}
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
