package core

import (
	"bytes"
	"errors"
	"testing"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/failure"
)

func testPhysical(t *testing.T, mode CacheMode, localPages, poolPages int64) *PhysicalPool {
	t.Helper()
	p, err := NewPhysical(PhysicalConfig{
		Servers:    4,
		LocalBytes: localPages * cachePageBytes,
		PoolBytes:  poolPages * cachePageBytes,
		Mode:       mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPhysicalValidation(t *testing.T) {
	if _, err := NewPhysical(PhysicalConfig{Servers: 0, PoolBytes: 1}); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := NewPhysical(PhysicalConfig{Servers: 1, PoolBytes: 0}); err == nil {
		t.Error("zero pool accepted")
	}
	if _, err := NewPhysical(PhysicalConfig{Servers: 1, PoolBytes: 1 << 20, LocalBytes: -1}); err == nil {
		t.Error("negative local accepted")
	}
}

func TestPhysicalRoundTrip(t *testing.T) {
	p := testPhysical(t, NoCache, 0, 64)
	b, err := p.Alloc(10 * cachePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("pool device bytes")
	if err := p.Write(0, b.Addr()+100, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := p.Read(2, b.Addr()+100, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip: %q", got)
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if err := b.Release(); !errors.Is(err, ErrReleased) {
		t.Fatalf("double release: %v", err)
	}
}

func TestPhysicalInfeasibleAllocation(t *testing.T) {
	// The Figure 5 check in the functional runtime: 96 pages on a 64-page
	// device fails; the logical pool of the same total memory succeeds.
	phys := testPhysical(t, NoCache, 8, 64)
	if _, err := phys.Alloc(96 * cachePageBytes); !errors.Is(err, alloc.ErrNoSpace) {
		t.Fatalf("impossible allocation: %v", err)
	}
	if phys.FreePoolBytes() != 64*cachePageBytes {
		t.Fatal("failed allocation leaked space")
	}

	cfg := Config{Placement: alloc.Striped}
	for i := 0; i < 4; i++ {
		cfg.Servers = append(cfg.Servers, ServerConfig{Capacity: 24 * SliceSize, SharedBytes: 24 * SliceSize})
	}
	logical, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := logical.Alloc(96*SliceSize, 0); err != nil {
		t.Fatalf("logical pool rejected the same working set: %v", err)
	}
}

func TestNoCacheAllReadsRemote(t *testing.T) {
	p := testPhysical(t, NoCache, 8, 64)
	b, err := p.Alloc(4 * cachePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4*cachePageBytes)
	for rep := 0; rep < 3; rep++ {
		if err := p.Read(0, b.Addr(), buf); err != nil {
			t.Fatal(err)
		}
	}
	m := p.metrics
	if m.Counter("pool.bytes.read.local").Value() != 0 {
		t.Fatal("no-cache served local bytes")
	}
	if got := m.Counter("pool.bytes.read.remote").Value(); got != 3*4*cachePageBytes {
		t.Fatalf("remote bytes = %d", got)
	}
}

func TestPinnedCacheHitsAfterWarmup(t *testing.T) {
	p := testPhysical(t, PinnedCache, 4, 64)
	b, err := p.Alloc(4 * cachePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4*cachePageBytes)
	if err := p.Read(0, b.Addr(), buf); err != nil { // warm-up
		t.Fatal(err)
	}
	m := p.metrics
	warmRemote := m.Counter("pool.bytes.read.remote").Value()
	if err := p.Read(0, b.Addr(), buf); err != nil { // all cached now
		t.Fatal(err)
	}
	if m.Counter("pool.bytes.read.remote").Value() != warmRemote {
		t.Fatal("second pass went remote despite cache")
	}
	if m.Counter("pool.bytes.read.local").Value() != 4*cachePageBytes {
		t.Fatal("second pass not served locally")
	}
}

func TestPinnedCacheNeverEvicts(t *testing.T) {
	p := testPhysical(t, PinnedCache, 2, 64)
	b, err := p.Alloc(4 * cachePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4*cachePageBytes)
	// Two passes: pages 0,1 pinned; pages 2,3 never cached.
	for rep := 0; rep < 2; rep++ {
		if err := p.Read(0, b.Addr(), buf); err != nil {
			t.Fatal(err)
		}
	}
	m := p.metrics
	// Remote: rep1 = 4 pages, rep2 = 2 pages (pinned hits for 0,1).
	if got := m.Counter("pool.bytes.read.remote").Value(); got != 6*cachePageBytes {
		t.Fatalf("remote bytes = %d pages", got/cachePageBytes)
	}
}

func TestLRUCacheThrashOnCyclicScan(t *testing.T) {
	p := testPhysical(t, LRUCache, 2, 64)
	b, err := p.Alloc(4 * cachePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4*cachePageBytes)
	for rep := 0; rep < 3; rep++ {
		if err := p.Read(0, b.Addr(), buf); err != nil {
			t.Fatal(err)
		}
	}
	m := p.metrics
	// Cyclic scan over 4 pages with a 2-page LRU: every access misses.
	if m.Counter("pool.bytes.read.local").Value() != 0 {
		t.Fatalf("LRU cyclic scan got %d local bytes, want 0",
			m.Counter("pool.bytes.read.local").Value())
	}
}

func TestLRUCacheHitsWhenFitting(t *testing.T) {
	p := testPhysical(t, LRUCache, 8, 64)
	b, err := p.Alloc(4 * cachePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4*cachePageBytes)
	if err := p.Read(0, b.Addr(), buf); err != nil {
		t.Fatal(err)
	}
	m := p.metrics
	before := m.Counter("pool.bytes.read.remote").Value()
	if err := p.Read(0, b.Addr(), buf); err != nil {
		t.Fatal(err)
	}
	if m.Counter("pool.bytes.read.remote").Value() != before {
		t.Fatal("fitting LRU scan missed")
	}
}

func TestCachesAreCoherentOnWrite(t *testing.T) {
	p := testPhysical(t, PinnedCache, 8, 64)
	b, err := p.Alloc(cachePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if err := p.Read(0, b.Addr(), buf); err != nil { // server 0 caches page
		t.Fatal(err)
	}
	if err := p.Write(1, b.Addr(), []byte("new!")); err != nil {
		t.Fatal(err)
	}
	if err := p.Read(0, b.Addr(), buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "new!" {
		t.Fatalf("stale cache read: %q", buf)
	}
}

// §5 failure-domain asymmetry: one LMP server crash loses 1/N of the
// pool (maskable); a physical pool device crash loses everything not
// cached.
func TestDeviceCrashIsTotal(t *testing.T) {
	p := testPhysical(t, PinnedCache, 2, 64)
	b, err := p.Alloc(8 * cachePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 8*cachePageBytes)
	if err := p.Write(0, b.Addr(), payload); err != nil {
		t.Fatal(err)
	}
	// Warm server 0's cache with the first two pages.
	warm := make([]byte, 2*cachePageBytes)
	if err := p.Read(0, b.Addr(), warm); err != nil {
		t.Fatal(err)
	}
	p.CrashDevice()
	if p.DeviceOK() {
		t.Fatal("device still marked alive")
	}
	// Cached pages survive on server 0...
	if err := p.Read(0, b.Addr(), warm); err != nil {
		t.Fatalf("cached read after device crash: %v", err)
	}
	// ...everything else is gone, for every server.
	got := make([]byte, cachePageBytes)
	err = p.Read(0, b.Addr()+addr.Logical(4*cachePageBytes), got)
	if !failure.IsMemoryException(err) {
		t.Fatalf("uncached read after device crash: %v", err)
	}
	err = p.Read(1, b.Addr(), got)
	if !failure.IsMemoryException(err) {
		t.Fatalf("other-server read after device crash: %v", err)
	}
	if err := p.Write(0, b.Addr(), []byte{1}); !failure.IsMemoryException(err) {
		t.Fatalf("write after device crash: %v", err)
	}
}

func TestPhysicalServerBounds(t *testing.T) {
	p := testPhysical(t, NoCache, 0, 8)
	b, err := p.Alloc(cachePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Read(9, b.Addr(), make([]byte, 4)); err == nil {
		t.Fatal("unknown server read accepted")
	}
	if err := p.Write(-1, b.Addr(), []byte("x")); err == nil {
		t.Fatal("unknown server write accepted")
	}
	if _, err := p.Alloc(0); err == nil {
		t.Fatal("zero alloc accepted")
	}
}

// A cached Read copies out of the page buffer that a concurrent Write
// updates in place: under -race this fails unless the copy is ordered
// with the update, and a hit must never observe half of a write.
func TestCachedReadRacesWrite(t *testing.T) {
	for _, mode := range []CacheMode{PinnedCache, LRUCache} {
		p := testPhysical(t, mode, 4, 16)
		b, err := p.Alloc(cachePageBytes)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 256)
		if err := p.Read(0, b.Addr(), got); err != nil { // warm server 0's cache
			t.Fatal(err)
		}
		const rounds = 2000
		done := make(chan error, 1)
		go func() {
			fill := make([]byte, len(got))
			for i := 1; i <= rounds; i++ {
				for j := range fill {
					fill[j] = byte(i)
				}
				if err := p.Write(1, b.Addr(), fill); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		for i := 0; i < rounds; i++ {
			if err := p.Read(0, b.Addr(), got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, bytes.Repeat(got[:1], len(got))) {
				t.Fatalf("%v: torn cached read: %v ... %v", mode, got[0], got[len(got)-1])
			}
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if hits := p.metrics.Counter("pool.reads.local").Value(); hits != rounds {
			t.Fatalf("%v: %d of %d reads hit the cache", mode, hits, rounds)
		}
	}
}
