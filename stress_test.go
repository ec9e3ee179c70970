// Concurrency stress: readers, writers, vectored ops, migration, and
// alloc/release churn all running against one pool. Run with -race; the
// striped hot path must keep every access linearized with concurrent
// slice moves. Writers own disjoint byte ranges (concurrent writes to
// the same bytes are an application-level race by the pool's memory
// model, as on real hardware).
package lmp_test

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	lmp "github.com/lmp-project/lmp"
)

func TestConcurrentAccessMigrationStress(t *testing.T) {
	const (
		servers    = 4
		slices     = 6 // shared buffer slices
		writers    = 4
		readers    = 3
		iterations = 100
	)
	pool := newConfigPool(t, lmp.Config{Placement: lmp.Striped}, servers, 24)
	shared, err := pool.Alloc(slices*lmp.SliceSize, 0)
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wgWriters, wgOthers sync.WaitGroup
	fail := make(chan error, writers+readers+2)

	// Writers: each owns a disjoint 1KiB lane inside every slice and
	// continually writes a generation-stamped pattern, reading it back
	// through ReadV to catch torn or lost writes across migrations.
	for w := 0; w < writers; w++ {
		w := w
		wgWriters.Add(1)
		go func() {
			defer wgWriters.Done()
			lane := int64(w) * 1024
			buf := make([]byte, 1024)
			got := make([]byte, 1024)
			for gen := 0; gen < iterations; gen++ {
				for i := range buf {
					buf[i] = byte(gen + i + w)
				}
				vecs := make([]lmp.Vec, 0, slices)
				for s := int64(0); s < slices; s++ {
					vecs = append(vecs, lmp.Vec{Addr: shared.Addr() + lmp.Logical(s*lmp.SliceSize+lane), Data: buf})
				}
				if err := pool.WriteV(lmp.ServerID(w%servers), vecs); err != nil {
					fail <- fmt.Errorf("writer %d: %v", w, err)
					return
				}
				la := shared.Addr() + lmp.Logical(int64(gen%slices)*lmp.SliceSize+lane)
				if err := pool.Read(lmp.ServerID(w%servers), la, got); err != nil {
					fail <- fmt.Errorf("writer %d readback: %v", w, err)
					return
				}
				if !bytes.Equal(got, buf) {
					fail <- fmt.Errorf("writer %d: torn write at gen %d", w, gen)
					return
				}
			}
		}()
	}

	// Readers: sweep the whole buffer with plain and vectored reads.
	for r := 0; r < readers; r++ {
		r := r
		wgOthers.Add(1)
		go func() {
			defer wgOthers.Done()
			buf := make([]byte, 4096)
			for i := 0; !stop.Load(); i++ {
				la := shared.Addr() + lmp.Logical((int64(i)*4096)%(slices*lmp.SliceSize-4096))
				if err := pool.Read(lmp.ServerID(r%servers), la, buf); err != nil {
					fail <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				if i%8 == 0 {
					if err := pool.ReadV(lmp.ServerID(r%servers), []lmp.Vec{
						{Addr: shared.Addr(), Data: buf[:2048]},
						{Addr: shared.Addr() + lmp.Logical((slices-1)*lmp.SliceSize), Data: buf[2048:]},
					}); err != nil {
						fail <- fmt.Errorf("reader %d vectored: %v", r, err)
						return
					}
				}
			}
		}()
	}

	// Migrator: bounce the shared buffer's slices between servers while
	// the traffic runs, plus balancer rounds over the harvested profile.
	wgOthers.Add(1)
	go func() {
		defer wgOthers.Done()
		first := uint64(shared.Addr()) / uint64(lmp.SliceSize)
		for i := 0; !stop.Load(); i++ {
			s := first + uint64(i)%slices
			if err := pool.MigrateSlice(s, lmp.ServerID(i%servers)); err != nil {
				fail <- fmt.Errorf("migrate slice %d: %v", s, err)
				return
			}
			if i%16 == 0 {
				if _, err := pool.BalanceOnce(); err != nil {
					fail <- fmt.Errorf("balance: %v", err)
					return
				}
			}
		}
	}()

	// Churner: allocate and release private buffers so the slice table
	// grows and logical ranges recycle under load.
	wgOthers.Add(1)
	go func() {
		defer wgOthers.Done()
		for i := 0; !stop.Load(); i++ {
			b, err := pool.Alloc(lmp.SliceSize, lmp.ServerID(i%servers))
			if err != nil {
				fail <- fmt.Errorf("churn alloc: %v", err)
				return
			}
			if err := b.WriteAt(0, []byte{byte(i)}, 0); err != nil {
				fail <- fmt.Errorf("churn write: %v", err)
				return
			}
			if err := b.Release(); err != nil {
				fail <- fmt.Errorf("churn release: %v", err)
				return
			}
		}
	}()

	// Writers run a fixed amount of work; when they finish, wind down
	// the open-ended goroutines and collect any failure.
	wgWriters.Wait()
	stop.Store(true)
	wgOthers.Wait()

	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
}
