package lmp_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	lmp "github.com/lmp-project/lmp"
)

// TestFacadeEndToEnd drives the public API the way the README shows.
func TestFacadeEndToEnd(t *testing.T) {
	cfg := lmp.Config{Placement: lmp.LocalityAware}
	for i := 0; i < 4; i++ {
		cfg.Servers = append(cfg.Servers, lmp.ServerConfig{
			Name: "s", Capacity: 16 * lmp.SliceSize, SharedBytes: 16 * lmp.SliceSize,
		})
	}
	pool, err := lmp.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Servers() != 4 {
		t.Fatalf("servers = %d", pool.Servers())
	}
	buf, err := pool.Alloc(2*lmp.SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("through the facade")
	if err := pool.Write(0, buf.Addr(), data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := pool.Read(3, buf.Addr(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip: %q", got)
	}
	if _, err := pool.BalanceOnce(); err != nil {
		t.Fatal(err)
	}
	if err := pool.ResizeShared(1, 8*lmp.SliceSize); err != nil {
		t.Fatal(err)
	}
	lock, err := pool.NewLock()
	if err != nil {
		t.Fatal(err)
	}
	if err := lock.Lock(0); err != nil {
		t.Fatal(err)
	}
	if err := lock.Unlock(0); err != nil {
		t.Fatal(err)
	}
	if err := buf.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeProtectionAndCrash(t *testing.T) {
	cfg := lmp.Config{Placement: lmp.LocalityAware}
	for i := 0; i < 3; i++ {
		cfg.Servers = append(cfg.Servers, lmp.ServerConfig{
			Capacity: 8 * lmp.SliceSize, SharedBytes: 8 * lmp.SliceSize,
		})
	}
	pool, err := lmp.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	unprot, err := pool.Alloc(lmp.SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	prot, err := pool.AllocProtected(lmp.SliceSize, 0,
		lmp.ProtectionPolicy{Scheme: lmp.ProtectReplica, Copies: 2})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("precious")
	if err := pool.Write(0, unprot.Addr(), payload); err != nil {
		t.Fatal(err)
	}
	if err := pool.Write(0, prot.Addr(), payload); err != nil {
		t.Fatal(err)
	}
	if err := pool.Crash(0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if err := pool.Read(1, unprot.Addr(), got); !lmp.IsMemoryException(err) {
		t.Fatalf("want memory exception, got %v", err)
	}
	if err := pool.Read(1, prot.Addr(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("replica data corrupt")
	}
}

func TestFacadePhysicalBaseline(t *testing.T) {
	pp, err := lmp.NewPhysical(lmp.PhysicalConfig{
		Servers:    2,
		LocalBytes: 1 << 16,
		PoolBytes:  2 * lmp.SliceSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pp.Alloc(1<<16, 0)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("baseline")
	if err := pp.Write(0, b.Addr(), msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := pp.Read(1, b.Addr(), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip: %q", got)
	}
	// The baseline is a Pool, so the v1 error contract holds for it: the
	// device cannot borrow the compute servers' DRAM, its crash is a
	// memory exception, a released buffer stays released.
	device := lmp.ServerID(pp.Servers() - 1)
	if owner, err := pp.OwnerOf(b.Addr()); err != nil || owner != device {
		t.Fatalf("buffer lives on server %d (%v), want the device %d", owner, err, device)
	}
	if _, err := pp.Alloc(2*lmp.SliceSize, 0); !errors.Is(err, lmp.ErrOutOfMemory) {
		t.Fatalf("allocation beyond the device: %v", err)
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if err := b.ReadAt(0, got, 0); !errors.Is(err, lmp.ErrReleased) {
		t.Fatalf("read after release: %v", err)
	}
	b, err = pp.Alloc(1<<16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pp.Crash(device); err != nil {
		t.Fatal(err)
	}
	if err := pp.Read(0, b.Addr(), got); !lmp.IsMemoryException(err) {
		t.Fatalf("read after the device crashed: %v", err)
	}
}

// TestNewWithUnusedCacheAllocatesLittle: turning the local cache on costs
// set-up nothing that scales with the caches' capacity. The pool is four
// lenders of 64 MiB shared plus 16 MiB private and a compute server, with
// a 16 MiB cache of 4 KiB pages on each of the five; none is filled, so
// the cached pool may allocate only a fixed amount beyond the uncached
// one. Each side's bytes are the least of three builds, which drops what
// another goroutine allocated meanwhile.
func TestNewWithUnusedCacheAllocatesLittle(t *testing.T) {
	cfg := lmp.Config{Placement: lmp.Striped}
	for i := 0; i < 4; i++ {
		cfg.Servers = append(cfg.Servers, lmp.ServerConfig{Name: "lender", Capacity: 80 << 20, SharedBytes: 64 << 20})
	}
	cfg.Servers = append(cfg.Servers, lmp.ServerConfig{Name: "compute", Capacity: 64 << 20})
	allocated := func(cfg lmp.Config) uint64 {
		least := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			pool, err := lmp.New(cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
			runtime.KeepAlive(pool)
		}
		return least
	}
	plain := allocated(cfg)
	cfg.Cache = lmp.CacheConfig{Enabled: true, CapacityBytes: 16 << 20, PageSize: 4096}
	cached := allocated(cfg)
	t.Logf("New allocated %d B without the cache, %d B with it", plain, cached)
	if cached > plain+64<<10 {
		t.Errorf("New allocated %d B with five unused 16 MiB caches, %d B without: %d B more, want at most 64 KiB", cached, plain, cached-plain)
	}
}
