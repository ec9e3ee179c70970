package core

import (
	"bytes"
	"errors"
	"testing"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/failure"
)

// The physical-pool baseline is a Pool with one lender. These tests pin
// what the paper says about that deployment, against the ordinary Pool
// API: nothing here is specific to a baseline implementation, because
// there is none.

const physPage = 4096 // the default cache page

// testPhysical builds four compute servers in front of a device.
func testPhysical(t *testing.T, localPages, poolSlices int64) *Pool {
	t.Helper()
	p, err := NewPhysical(PhysicalConfig{
		Servers:    4,
		LocalBytes: localPages * physPage,
		PoolBytes:  poolSlices * SliceSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// device is the baseline's one lender: the last server.
func device(p *Pool) addr.ServerID { return addr.ServerID(p.Servers() - 1) }

// readPages reads n cache pages of b from server from, one page per read:
// only reads up to a page long go through the cache.
func readPages(t *testing.T, p *Pool, from addr.ServerID, b *Buffer, n int) {
	t.Helper()
	buf := make([]byte, physPage)
	for i := 0; i < n; i++ {
		if err := p.Read(from, b.Addr()+addr.Logical(i*physPage), buf); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewPhysicalValidation(t *testing.T) {
	for name, pc := range map[string]PhysicalConfig{
		"zero servers":   {Servers: 0, PoolBytes: SliceSize},
		"zero pool":      {Servers: 1, PoolBytes: 0},
		"sub-slice pool": {Servers: 1, PoolBytes: SliceSize - 1},
		"negative local": {Servers: 1, PoolBytes: SliceSize, LocalBytes: -1},
	} {
		if _, err := NewPhysical(pc); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	p, err := NewPhysical(PhysicalConfig{Servers: 3, PoolBytes: 5*SliceSize + 17})
	if err != nil {
		t.Fatal(err)
	}
	if p.Servers() != 4 {
		t.Fatalf("%d servers, want 3 compute + the device", p.Servers())
	}
	for s := addr.ServerID(0); s < device(p); s++ {
		if got := p.SharedBytes(s); got != 0 {
			t.Errorf("compute server %d lends %d bytes", s, got)
		}
	}
	if got := p.SharedBytes(device(p)); got != 5*SliceSize || p.FreePoolBytes() != got {
		t.Fatalf("device lends %d (free %d), want the pool rounded down to 5 slices", got, p.FreePoolBytes())
	}
}

func TestPhysicalRoundTrip(t *testing.T) {
	p := testPhysical(t, 0, 4)
	b, err := p.Alloc(10*physPage, 0)
	if err != nil {
		t.Fatal(err)
	}
	if owner, err := p.OwnerOf(b.Addr()); err != nil || owner != device(p) {
		t.Fatalf("buffer homed on server %d (%v), want the device", owner, err)
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

// TestPhysicalReleaseIsFinal: the three things the separate baseline
// implementation got wrong. A released buffer cannot be read, the extent's
// next tenant reads zeros — not the previous tenant's bytes, from the
// device or from anybody's cache — and the books balance.
func TestPhysicalReleaseIsFinal(t *testing.T) {
	for _, localPages := range []int64{0, 8} {
		p := testPhysical(t, localPages, 2)
		a, err := p.Alloc(SliceSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		secret := []byte("tenant-A-secret")
		if err := p.Write(0, a.Addr(), secret); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(secret))
		if err := p.Read(1, a.Addr(), got); err != nil { // server 1 caches the page
			t.Fatal(err)
		}
		home, err := p.Translate(a.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Release(); err != nil {
			t.Fatal(err)
		}

		clear(got)
		if err := a.ReadAt(1, got, 0); !errors.Is(err, ErrReleased) {
			t.Errorf("local %d pages: read through the released buffer: %v, got %q", localPages, err, got)
		}
		if err := p.Read(1, a.Addr(), got); !errors.Is(err, ErrReleased) || !errors.Is(err, addr.ErrUnmapped) {
			t.Errorf("local %d pages: read of the released range: %v, got %q", localPages, err, got)
		}
		if free := p.FreePoolBytes(); free != 2*SliceSize {
			t.Errorf("local %d pages: %d bytes free after release, want the whole device", localPages, free)
		}

		b, err := p.Alloc(SliceSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := p.Translate(b.Addr()); err != nil || again != home {
			t.Fatalf("next tenant placed at %+v (%v), want the freed extent %+v", again, err, home)
		}
		for from := addr.ServerID(0); from < device(p); from++ {
			if err := p.Read(from, b.Addr(), got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, make([]byte, len(got))) {
				t.Errorf("local %d pages: server %d reads %q from a fresh buffer, want zeros", localPages, from, got)
			}
		}
	}
}

func TestPhysicalInfeasibleAllocation(t *testing.T) {
	// The Figure 5 check in the functional runtime: 96 slices on a
	// 64-slice device fail — the compute servers' 8 slices of DRAM each
	// are not the pool's to place on — while a logical pool of the same
	// total memory succeeds.
	phys, err := NewPhysical(PhysicalConfig{Servers: 4, LocalBytes: 8 * SliceSize, PoolBytes: 64 * SliceSize})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := phys.Alloc(96*SliceSize, 0); !errors.Is(err, alloc.ErrNoSpace) {
		t.Fatalf("impossible allocation: %v", err)
	}
	if phys.FreePoolBytes() != 64*SliceSize {
		t.Fatal("failed allocation leaked space")
	}
	if err := phys.CheckInvariants(); err != nil {
		t.Fatal(err)
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
	p := testPhysical(t, 0, 4)
	b, err := p.Alloc(4*physPage, 0)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		readPages(t, p, 0, b, 4)
	}
	st := p.Stats()
	if st.Reads.LocalBytes != 0 || st.Reads.LocalOps != 0 {
		t.Fatalf("uncached baseline served %d bytes locally", st.Reads.LocalBytes)
	}
	if st.Reads.RemoteBytes != 3*4*physPage {
		t.Fatalf("remote bytes = %d", st.Reads.RemoteBytes)
	}
	if st.Cache != (CacheStats{}) {
		t.Fatalf("LocalBytes 0 built a cache: %+v", st.Cache)
	}
}

func TestPhysicalCacheHitsAfterWarmup(t *testing.T) {
	p := testPhysical(t, 64, 4)
	b, err := p.Alloc(4*physPage, 0)
	if err != nil {
		t.Fatal(err)
	}
	readPages(t, p, 0, b, 4) // warm-up: four fills from the device
	warm := p.Stats()
	if warm.Cache.Fills != 4 || warm.Reads.RemoteBytes != 4*physPage {
		t.Fatalf("warm-up: %d fills, %d remote bytes", warm.Cache.Fills, warm.Reads.RemoteBytes)
	}
	readPages(t, p, 0, b, 4) // all cached now
	st := p.Stats()
	if st.Reads.RemoteBytes != warm.Reads.RemoteBytes || st.Cache.Fills != warm.Cache.Fills {
		t.Fatal("second pass went to the device despite the cache")
	}
	if st.Cache.Hits-warm.Cache.Hits != 4 {
		t.Fatalf("second pass hit %d of 4 pages", st.Cache.Hits-warm.Cache.Hits)
	}
}

func TestCachesAreCoherentOnWrite(t *testing.T) {
	p := testPhysical(t, 8, 1)
	b, err := p.Alloc(physPage, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if err := p.Read(0, b.Addr(), buf); err != nil { // server 0 caches the page
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

// §5 failure-domain asymmetry: a crash of one LMP server loses the 1/N of
// the pool it lent (and protection can mask that); a crash of the pool
// device loses every byte of every buffer for every server.
func TestDeviceCrashIsTotal(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, physPage)
	fill := func(p *Pool) *Buffer {
		t.Helper()
		b, err := p.Alloc(4*SliceSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		for s := int64(0); s < 4; s++ {
			if err := b.WriteAt(0, payload, s*SliceSize); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	lost := func(p *Pool, b *Buffer) (n int) {
		t.Helper()
		got := make([]byte, physPage)
		for s := int64(0); s < 4; s++ {
			switch err := b.ReadAt(1, got, s*SliceSize); {
			case failure.IsMemoryException(err):
				n++
			case err != nil:
				t.Fatal(err)
			case !bytes.Equal(got, payload):
				t.Fatalf("slice %d survived the crash with the wrong bytes", s)
			}
		}
		return n
	}

	phys := testPhysical(t, 2, 4)
	pb := fill(phys)
	readPages(t, phys, 0, pb, 2) // server 0 caches the first two pages
	if err := phys.Crash(device(phys)); err != nil {
		t.Fatal(err)
	}
	if n := lost(phys, pb); n != 4 {
		t.Fatalf("device crash lost %d of 4 slices, want all", n)
	}
	// What a server had cached is all that is left, and only to it.
	readPages(t, phys, 0, pb, 2)
	if err := phys.Read(0, pb.Addr()+2*SliceSize, make([]byte, physPage)); !failure.IsMemoryException(err) {
		t.Fatalf("uncached read after the device crash: %v", err)
	}
	if err := phys.Write(0, pb.Addr(), payload); !failure.IsMemoryException(err) {
		t.Fatalf("write after the device crash: %v", err)
	}

	cfg := Config{Placement: alloc.Striped}
	for i := 0; i < 4; i++ {
		cfg.Servers = append(cfg.Servers, ServerConfig{Capacity: SliceSize, SharedBytes: SliceSize})
	}
	logical, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb := fill(logical)
	if err := logical.Crash(2); err != nil {
		t.Fatal(err)
	}
	if n := lost(logical, lb); n != 1 {
		t.Fatalf("one of four LMP servers crashed and %d of 4 slices were lost, want 1", n)
	}
}

func TestPhysicalServerBounds(t *testing.T) {
	p := testPhysical(t, 0, 1)
	b, err := p.Alloc(physPage, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(0, 0); err == nil {
		t.Fatal("zero alloc accepted")
	}
	if err := p.Crash(device(p) + 1); err == nil {
		t.Fatal("crash of a server past the device accepted")
	}
	// The deployment is fixed by what each box is: the device cannot lend
	// more than it has, and a compute server that lends nothing cannot be
	// migrated onto.
	if err := p.ResizeShared(device(p), 2*SliceSize); err == nil {
		t.Fatal("device grown past its capacity")
	}
	if err := p.MigrateSlice(addr.SliceOf(b.Addr()), 0); !errors.Is(err, alloc.ErrNoSpace) {
		t.Fatalf("slice migrated onto a compute server that lends nothing: %v", err)
	}
}

// A cached read copies out of a page that a concurrent write invalidates
// or updates: under -race this fails unless the copy is ordered with the
// update, and a read must never observe half of a write.
func TestCachedReadRacesWrite(t *testing.T) {
	p := testPhysical(t, 4, 1)
	b, err := p.Alloc(physPage, 0)
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
			t.Fatalf("torn cached read: %v ... %v", got[0], got[len(got)-1])
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
