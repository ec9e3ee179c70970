// Tests for the v1 public API: sentinel error classification, context
// cancellation, vectored I/O, configuration, and the io.ReaderAt /
// io.WriterAt adapters.
package lmp_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	lmp "github.com/lmp-project/lmp"
)

func newTestPool(t testing.TB, servers int, slicesPer int64) *lmp.Pool {
	t.Helper()
	return newConfigPool(t, lmp.Config{}, servers, slicesPer)
}

// newConfigPool builds cfg's pool on servers that share all of their
// slicesPer slices.
func newConfigPool(t testing.TB, cfg lmp.Config, servers int, slicesPer int64) *lmp.Pool {
	t.Helper()
	for s := 0; s < servers; s++ {
		cfg.Servers = append(cfg.Servers, lmp.ServerConfig{
			Name:     fmt.Sprintf("s%d", s),
			Capacity: slicesPer * lmp.SliceSize, SharedBytes: slicesPer * lmp.SliceSize,
		})
	}
	pool, err := lmp.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// TestOptionsConstructor builds a pool from Config fields and checks each
// took effect, then that the three remaining options set the fields they
// name.
func TestOptionsConstructor(t *testing.T) {
	pool := newConfigPool(t, lmp.Config{
		Placement:            lmp.Striped,
		Protection:           lmp.ProtectionPolicy{Scheme: lmp.ProtectReplica, Copies: 2},
		CoherenceGranularity: 128,
	}, 3, 4)
	// Striped placement: a 3-slice buffer must land one slice per server.
	b, err := pool.Alloc(3*lmp.SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	owners := map[lmp.ServerID]bool{}
	for i := int64(0); i < 3; i++ {
		owner, err := pool.OwnerOf(b.Addr() + lmp.Logical(i*lmp.SliceSize))
		if err != nil {
			t.Fatal(err)
		}
		owners[owner] = true
	}
	if len(owners) != 3 {
		t.Fatalf("striped 3-slice buffer on %d servers, want 3", len(owners))
	}
	// Default protection from the config: replica-protected buffers
	// survive a crash of their owner.
	if got := b.Protection().Scheme; got != lmp.ProtectReplica {
		t.Fatalf("protection scheme %v, want replica", got)
	}
	// The coherent region is a fixed 1 MiB, allocated in blocks of the
	// configured granularity.
	if off, err := pool.AllocCoherent(1); err != nil || off != 0 {
		t.Fatalf("first coherent block = %d, %v; want offset 0", off, err)
	}
	if off, err := pool.AllocCoherent(1<<20 - 128); err != nil || off != 128 {
		t.Fatalf("rest of the coherent region = %d, %v; want offset 128 (one 128 B block taken)", off, err)
	}
	if _, err := pool.AllocCoherent(1); err == nil {
		t.Fatal("coherent region should be exhausted")
	}

	var cfg lmp.Config
	for _, opt := range []lmp.Option{
		lmp.WithPlacement(lmp.Striped),
		lmp.WithLocalCache(lmp.CacheConfig{PageSize: 8192}),
		lmp.WithTracing(lmp.TraceConfig{SampleEvery: 1}),
	} {
		opt(&cfg)
	}
	if cfg.Placement != lmp.Striped || cfg.Cache != (lmp.CacheConfig{Enabled: true, PageSize: 8192}) || cfg.Trace.SampleEvery != 1 {
		t.Fatalf("options set %+v", cfg)
	}
}

func TestSentinelErrServerDead(t *testing.T) {
	pool := newTestPool(t, 2, 4)
	b, err := pool.Alloc(lmp.SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := pool.OwnerOf(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	other := lmp.ServerID(1 - int(owner))
	if err := pool.Crash(other); err != nil {
		t.Fatal(err)
	}
	// Migrating onto a dead server reports it via the sentinel.
	err = pool.MigrateSlice(uint64(b.Addr())/uint64(lmp.SliceSize), other)
	if !errors.Is(err, lmp.ErrServerDead) {
		t.Fatalf("migrate to dead server: %v, want errors.Is ErrServerDead", err)
	}
	// Unprotected data on a crashed owner is a memory exception, not a
	// dead-server error (the address is lost, not busy).
	if err := pool.Crash(owner); err != nil {
		t.Fatal(err)
	}
	err = pool.Read(owner, b.Addr(), make([]byte, 8))
	if !lmp.IsMemoryException(err) {
		t.Fatalf("read of lost data: %v, want memory exception", err)
	}
}

func TestSentinelErrOutOfMemory(t *testing.T) {
	pool := newTestPool(t, 1, 2)
	if _, err := pool.Alloc(2*lmp.SliceSize, 0); err != nil {
		t.Fatal(err)
	}
	_, err := pool.Alloc(lmp.SliceSize, 0)
	if !errors.Is(err, lmp.ErrOutOfMemory) {
		t.Fatalf("alloc beyond capacity: %v, want errors.Is ErrOutOfMemory", err)
	}
}

func TestReleasedBufferErrors(t *testing.T) {
	pool := newTestPool(t, 2, 4)
	b, err := pool.Alloc(2*lmp.SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	la := b.Addr()
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	// Buffer-level access reports the release directly.
	if err := b.ReadAt(0, make([]byte, 8), 0); !errors.Is(err, lmp.ErrReleased) {
		t.Fatalf("ReadAt on released buffer: %v, want ErrReleased", err)
	}
	if err := b.Release(); !errors.Is(err, lmp.ErrReleased) {
		t.Fatalf("double release: %v, want ErrReleased", err)
	}
	// Pool-level access to the freed range classifies as both released
	// and unmapped.
	err = pool.ReadV(0, []lmp.Vec{{Addr: la, Data: make([]byte, 8)}})
	if !errors.Is(err, lmp.ErrReleased) {
		t.Fatalf("ReadV of released range: %v, want errors.Is ErrReleased", err)
	}
	if !errors.Is(err, lmp.ErrUnmapped) {
		t.Fatalf("ReadV of released range: %v, want errors.Is ErrUnmapped too", err)
	}
	// A never-allocated address is unmapped but not released.
	err = pool.Read(0, lmp.Logical(100*lmp.SliceSize), make([]byte, 8))
	if !errors.Is(err, lmp.ErrUnmapped) || errors.Is(err, lmp.ErrReleased) {
		t.Fatalf("read of virgin address: %v, want unmapped and not released", err)
	}
}

func TestContextCancellation(t *testing.T) {
	pool := newTestPool(t, 2, 4)
	b, err := pool.Alloc(lmp.SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := pool.ReadCtx(ctx, 0, b.Addr(), make([]byte, 8)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ReadCtx: %v, want errors.Is context.Canceled", err)
	}
	if err := pool.WriteCtx(ctx, 0, b.Addr(), make([]byte, 8)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled WriteCtx: %v, want errors.Is context.Canceled", err)
	}
	if err := pool.ReadVCtx(ctx, 0, []lmp.Vec{{Addr: b.Addr(), Data: make([]byte, 8)}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ReadVCtx: %v, want errors.Is context.Canceled", err)
	}
	// A live context passes through.
	if err := pool.ReadCtx(context.Background(), 0, b.Addr(), make([]byte, 8)); err != nil {
		t.Fatalf("live ReadCtx: %v", err)
	}
}

func TestVectoredRoundTrip(t *testing.T) {
	pool := newConfigPool(t, lmp.Config{Placement: lmp.Striped}, 4, 8)
	// A multi-slice buffer striped across servers: one Vec spanning slice
	// boundaries exercises segment splitting, and with striping the
	// physical runs land on different servers so coalescing must stop at
	// each boundary.
	b, err := pool.Alloc(4*lmp.SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	span := make([]byte, 2*lmp.SliceSize)
	for i := range span {
		span[i] = byte(i * 7)
	}
	const sliceEnd = lmp.SliceSize
	writes := []lmp.Vec{
		{Addr: b.Addr() + lmp.Logical(sliceEnd-512), Data: span[:1024]}, // crosses slice 0→1
		{Addr: b.Addr() + lmp.Logical(3*lmp.SliceSize), Data: span[1024:2048]},
		{Addr: b.Addr() + lmp.Logical(2*lmp.SliceSize+64), Data: span[2048:2048]}, // empty: no-op
	}
	if err := pool.WriteV(1, writes); err != nil {
		t.Fatal(err)
	}
	got1 := make([]byte, 1024)
	got2 := make([]byte, 1024)
	reads := []lmp.Vec{
		{Addr: b.Addr() + lmp.Logical(sliceEnd-512), Data: got1},
		{Addr: b.Addr() + lmp.Logical(3*lmp.SliceSize), Data: got2},
	}
	if err := pool.ReadV(2, reads); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, span[:1024]) {
		t.Fatal("vec 1 round trip mismatch")
	}
	if !bytes.Equal(got2, span[1024:2048]) {
		t.Fatal("vec 2 round trip mismatch")
	}
	// Empty vector list is a no-op.
	if err := pool.ReadV(0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVectoredProtectedWrite(t *testing.T) {
	// WriteV through replica and EC protection must keep protection
	// consistent: crash the owner afterwards and the data must survive.
	for _, prot := range []lmp.ProtectionPolicy{
		{Scheme: lmp.ProtectReplica, Copies: 2},
		{Scheme: lmp.ProtectErasure, K: 2, M: 1},
	} {
		pool := newTestPool(t, 4, 16)
		b, err := pool.AllocProtected(2*lmp.SliceSize, 0, prot)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 4096)
		for i := range data {
			data[i] = byte(i ^ 0x5a)
		}
		// One Vec crossing the slice boundary so both slices see writes.
		if err := pool.WriteV(0, []lmp.Vec{{Addr: b.Addr() + lmp.Logical(lmp.SliceSize-2048), Data: data}}); err != nil {
			t.Fatal(err)
		}
		owner, err := pool.OwnerOf(b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.Crash(owner); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 4096)
		if err := pool.Read(0, b.Addr()+lmp.Logical(lmp.SliceSize-2048), got); err != nil {
			t.Fatalf("%v read after crash: %v", prot.Scheme, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%v data lost after crash", prot.Scheme)
		}
	}
}

func TestTailOptionsAndSentinels(t *testing.T) {
	pool := newConfigPool(t, lmp.Config{
		Tail: lmp.TailConfig{
			OpBudget:       time.Hour,
			AdmissionLimit: 1,
			Breaker: lmp.BreakerPolicy{
				Enabled: true,
				// No genuine in-process access classifies as slow on the
				// stopped clock below; only the injected reports do.
				SlowCallNS: int64(time.Second),
			},
		},
		// A stopped clock: a tripped breaker's cool-down never passes.
		Clock: func() int64 { return 0 },
	}, 2, 4)
	b, err := pool.Alloc(2*lmp.SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Healthy path is unchanged with every tail feature armed.
	if err := pool.Write(0, b.Addr(), []byte("steady state")); err != nil {
		t.Fatal(err)
	}

	// An expired caller deadline classifies as the lmp sentinel and as
	// the stdlib sentinel, so callers written against either work.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	<-ctx.Done()
	err = pool.ReadCtx(ctx, 0, b.Addr(), make([]byte, 8))
	if !errors.Is(err, lmp.ErrDeadlineExceeded) {
		t.Fatalf("expired deadline: %v, want errors.Is ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: %v, want errors.Is context.DeadlineExceeded too", err)
	}

	// With the admission limit at 1, concurrent full-buffer reads must
	// collide; every shed classifies as ErrOverloaded. Workers retry
	// until one collision is seen so the test doesn't depend on any
	// particular interleaving.
	var sheds atomic.Int64
	var badShed atomic.Value
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 2*lmp.SliceSize)
			<-start
			for i := 0; i < 500 && sheds.Load() == 0; i++ {
				if err := pool.Read(1, b.Addr(), buf); err != nil {
					if errors.Is(err, lmp.ErrOverloaded) {
						sheds.Add(1)
					} else {
						badShed.Store(err)
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if err := badShed.Load(); err != nil {
		t.Fatalf("admission shed did not classify as ErrOverloaded: %v", err)
	}
	if sheds.Load() == 0 {
		t.Fatal("8 workers against admission limit 1 never collided")
	}
	if got := pool.Inflight(); got != 0 {
		t.Fatalf("inflight %d after quiesce, want 0", got)
	}

	// Feed the owner's breaker slow calls (over SlowCallNS, the way a
	// degraded-but-responsive server looks) until it trips: unprotected
	// reads fail fast with ErrServerDegraded (not ErrServerDead — the
	// server is slow, not gone) and writes still reach the primary.
	owner, err := pool.OwnerOf(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// Enough reports to outvote the successful samples the admission
	// hammer above left in the sliding window.
	for i := 0; i < 32; i++ {
		pool.ReportAccess(owner, 2*time.Second, nil)
	}
	if pool.BreakerCounters(owner).Trips == 0 {
		t.Fatal("breaker did not trip on sustained failures")
	}
	err = pool.Read(0, b.Addr(), make([]byte, 8))
	if !errors.Is(err, lmp.ErrServerDegraded) {
		t.Fatalf("read from degraded owner: %v, want errors.Is ErrServerDegraded", err)
	}
	if errors.Is(err, lmp.ErrServerDead) {
		t.Fatal("degraded must not classify as dead")
	}
	if err := pool.Write(0, b.Addr(), []byte("writes pass through")); err != nil {
		t.Fatalf("write during degradation: %v", err)
	}
}

func TestReaderAtWriterAtAdapters(t *testing.T) {
	pool := newTestPool(t, 2, 4)
	b, err := pool.Alloc(1000, 0) // unaligned size: adapters see 1000, not a slice multiple
	if err != nil {
		t.Fatal(err)
	}
	w := b.WriterAt(0)
	payload := []byte("logical memory pools are flexible and local")
	if n, err := w.WriteAt(payload, 100); err != nil || n != len(payload) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	// Out-of-bounds write fails without partial effect.
	if _, err := w.WriteAt(payload, 990); err == nil {
		t.Fatal("write past buffer end should fail")
	}
	r := b.ReaderAt(1)
	got := make([]byte, len(payload))
	if n, err := r.ReadAt(got, 100); err != nil || n != len(payload) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("adapter round trip mismatch")
	}
	// io.ReaderAt EOF contract at the end of the buffer.
	tail := make([]byte, 64)
	n, err := r.ReadAt(tail, 980)
	if n != 20 || err != io.EOF {
		t.Fatalf("ReadAt at tail = %d, %v; want 20, io.EOF", n, err)
	}
	if _, err := r.ReadAt(tail, 1000); err != io.EOF {
		t.Fatalf("ReadAt past end = %v, want io.EOF", err)
	}
	// The adapters compose with the standard library.
	sec := io.NewSectionReader(r, 100, int64(len(payload)))
	var sb bytes.Buffer
	if _, err := io.Copy(&sb, sec); err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(payload) {
		t.Fatal("io.SectionReader over pool buffer mismatch")
	}
	// Released buffers fail with the sentinel through the adapters too.
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAt(got, 100); !errors.Is(err, lmp.ErrReleased) {
		t.Fatalf("adapter read after release: %v, want ErrReleased", err)
	}
}
