// The repair experiment: the payoff numbers for the parallel pipelined
// control plane, the one runtime measurement bench/ does not cover yet.
// Two tables:
//
//   - Repair throughput scaling: a server holding a pile of replicated
//     slices crashes and RepairServer rebuilds it with 1, 2, 4, and 8
//     workers. An injected fabric delay models the per-slice remote copy
//     (the container gives no real parallelism, so the scaling headroom
//     is latency hiding — exactly the production shape, where repair
//     bandwidth is fabric-bound, not CPU-bound). The headline is the
//     1→8 worker speedup, which must clear minRepairScaling.
//
//   - Foreground read latency during migration: a reader hammers a
//     buffer while a background migrator ping-pongs its slices between
//     two servers through the two-phase engine (pre-copy outside locks,
//     dirty-delta commit). The reading is the reader's p50/p99.
package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	lmp "github.com/lmp-project/lmp"
	"github.com/lmp-project/lmp/internal/addr"
)

// Workload shape. repairDelay models a ~100MB/s repair fabric (20ms per
// 2MiB slice): large enough that the engine's latency hiding, not this
// container's single core, sets the scaling curve — the same regime as
// production, where repair bandwidth is fabric-bound, not memcpy-bound.
// migPace is the reader's think time in the migration half; paced
// arrivals sample the migrator's lock-hold windows the way open-loop
// foreground traffic would, instead of racing 2000 back-to-back reads
// through one hold.
const (
	repairServers = 6
	repairSlices  = 16
	repairCopies  = 2
	repairDelay   = 20 * time.Millisecond
	migSlices     = 8
	migDelay      = 2 * time.Millisecond
	migReads      = 2000
	migPace       = 20 * time.Microsecond
)

// minRepairScaling is the acceptance floor for RepairServer MB/s at 8
// workers vs 1; below it the experiment exits non-zero.
const minRepairScaling = 3.0

// runRepairThroughput crashes a server owning repairSlices replicated
// slices and measures RepairServer MB/s with the given worker count.
func runRepairThroughput(workers int) float64 {
	pcfg := lmp.Config{
		Placement:  lmp.LocalityAware,
		Protection: lmp.ProtectionPolicy{Scheme: lmp.ProtectReplica, Copies: repairCopies},
		Repair: lmp.RepairConfig{
			Parallelism: workers,
			FabricDelay: func() { time.Sleep(repairDelay) },
		},
	}
	for s := 0; s < repairServers; s++ {
		pcfg.Servers = append(pcfg.Servers, lmp.ServerConfig{
			Name:     fmt.Sprintf("host%d", s),
			Capacity: 3 * repairSlices * lmp.SliceSize, SharedBytes: 3 * repairSlices * lmp.SliceSize,
		})
	}
	pool, err := lmp.New(pcfg)
	if err != nil {
		fatalf("repair: %v", err)
	}
	victim := lmp.ServerID(0)
	if _, err := pool.Alloc(repairSlices*lmp.SliceSize, victim); err != nil {
		fatalf("repair: alloc: %v", err)
	}
	if err := pool.Crash(victim); err != nil {
		fatalf("repair: crash: %v", err)
	}
	start := time.Now()
	recovered, err := pool.RepairServer(victim)
	elapsed := time.Since(start)
	if err != nil {
		fatalf("repair: %v", err)
	}
	if recovered != repairSlices {
		fatalf("repair: recovered %d of %d slices", recovered, repairSlices)
	}
	return float64(recovered) * float64(lmp.SliceSize) / elapsed.Seconds() / 1e6
}

// migrationRead is one run's foreground read percentiles.
type migrationRead struct{ p50, p99 float64 }

// runMigrationRead measures foreground read latency percentiles while a
// background migrator ping-pongs the buffer's slices between two
// servers.
func runMigrationRead() migrationRead {
	pcfg := lmp.Config{
		Placement: lmp.LocalityAware,
		Repair: lmp.RepairConfig{
			FabricDelay: func() { time.Sleep(migDelay) },
		},
	}
	for s := 0; s < 3; s++ {
		pcfg.Servers = append(pcfg.Servers, lmp.ServerConfig{
			Name:     fmt.Sprintf("host%d", s),
			Capacity: 2 * migSlices * lmp.SliceSize, SharedBytes: 2 * migSlices * lmp.SliceSize,
		})
	}
	reader := lmp.ServerID(3)
	pcfg.Servers = append(pcfg.Servers, lmp.ServerConfig{
		Name: "reader", Capacity: 4 * lmp.SliceSize,
	})
	pool, err := lmp.New(pcfg)
	if err != nil {
		fatalf("migration: %v", err)
	}
	buf, err := pool.Alloc(migSlices*lmp.SliceSize, 0)
	if err != nil {
		fatalf("migration: alloc: %v", err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		first := addr.SliceOf(buf.Addr())
		for round := 0; !stop.Load(); round++ {
			to := lmp.ServerID(1 + round%2)
			for i := 0; i < migSlices && !stop.Load(); i++ {
				// Collocation/staleness refusals are part of the workload,
				// not failures: the reader's latency is the measurement.
				_ = pool.MigrateSlice(first+uint64(i), to)
			}
		}
	}()

	rbuf := make([]byte, 64)
	span := buf.Size() - int64(len(rbuf))
	lat := make([]int64, 0, migReads)
	for i := 0; i < migReads; i++ {
		time.Sleep(migPace)             // think time; the timer below excludes it
		off := (int64(i) * 4099) % span // coprime stride covers all slices
		t0 := time.Now()
		if err := pool.Read(reader, buf.Addr()+lmp.Logical(off), rbuf); err != nil {
			fatalf("migration: read: %v", err)
		}
		lat = append(lat, time.Since(t0).Nanoseconds())
	}
	stop.Store(true)
	wg.Wait()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) float64 { return float64(lat[int(p*float64(len(lat)-1))]) }
	return migrationRead{p50: pct(0.50), p99: pct(0.99)}
}

// medianOf3 runs f three times and returns the run whose key is the
// median: single runs on a loaded box swing. Keeping a whole run keeps
// each row one coherent measurement.
func medianOf3[T any](f func() T, key func(T) float64) T {
	runs := []T{f(), f(), f()}
	sort.Slice(runs, func(i, j int) bool { return key(runs[i]) < key(runs[j]) })
	return runs[1]
}

func repair() {
	fmt.Printf("== Repair: RepairServer throughput vs workers (%d replicated slices, %v modelled copy per slice, median of 3) ==\n",
		repairSlices, repairDelay)
	fmt.Printf("%-10s %12s %14s\n", "Workers", "MB/s", "vs 1 worker")
	var base, scaling float64
	for _, w := range []int{1, 2, 4, 8} {
		mbs := medianOf3(func() float64 { return runRepairThroughput(w) }, func(v float64) float64 { return v })
		if w == 1 {
			base = mbs
		}
		scaling = mbs / base
		fmt.Printf("%-10d %12.1f %13.2fx\n", w, mbs, scaling)
	}
	fmt.Printf("1->8 worker scaling: %.2fx (floor %.1fx)\n\n", scaling, minRepairScaling)

	fmt.Printf("== Repair: foreground 64B read latency during live migration (%d slices ping-ponged, %d paced reads, median of 3 by p99) ==\n",
		migSlices, migReads)
	m := medianOf3(runMigrationRead, func(r migrationRead) float64 { return r.p99 })
	fmt.Printf("%-10s %12s %14s\n", "", "p50 (ns)", "p99 (ns)")
	fmt.Printf("%-10s %12.0f %14.0f\n", "read", m.p50, m.p99)
	fmt.Println()

	if scaling < minRepairScaling {
		fatalf("repair scaling %.2fx below the %.1fx floor", scaling, minRepairScaling)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lmpbench: "+format+"\n", args...)
	os.Exit(1)
}
