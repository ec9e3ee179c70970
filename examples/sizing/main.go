// Sizing demonstrates the paper's Benefit 4 (memory flexibility): the
// private/shared split of every server follows the workload. A background
// sizing task periodically solves the global optimization from §5
// ("Sizing the shared regions") and re-draws each server's boundary; the
// same deployment serves a pool-heavy phase and a private-heavy phase —
// something a physical pool cannot do without moving DIMMs.
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	lmp "github.com/lmp-project/lmp"
)

const capBytes = 32 * lmp.SliceSize

func main() {
	cfg := lmp.Config{Placement: lmp.LocalityAware}
	for i := 0; i < 4; i++ {
		cfg.Servers = append(cfg.Servers, lmp.ServerConfig{
			Name: fmt.Sprintf("server%d", i), Capacity: capBytes, SharedBytes: capBytes / 2,
		})
	}
	pool, err := lmp.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The demand signal the background task reads. Phase A: server 0 runs
	// a pool-hungry analytics job; everyone else is private-heavy.
	var phase atomic.Int32
	loads := func() ([]lmp.ServerLoad, int64) {
		ls := make([]lmp.ServerLoad, 4)
		for i := range ls {
			ls[i] = lmp.ServerLoad{Capacity: capBytes}
		}
		if phase.Load() == 0 {
			ls[0].SharedDemand, ls[0].SharedWeight = 24*lmp.SliceSize, 3
			for i := 1; i < 4; i++ {
				ls[i].PrivateDemand, ls[i].PrivateWeight = 28*lmp.SliceSize, 2
			}
		} else {
			// Phase B: server 0 needs its DRAM back; server 2 now hosts
			// the shared working set.
			ls[0].PrivateDemand, ls[0].PrivateWeight = 30*lmp.SliceSize, 3
			ls[2].SharedDemand, ls[2].SharedWeight = 24*lmp.SliceSize, 3
		}
		return ls, 8 * lmp.SliceSize // the pool must keep at least this much
	}

	runner, err := pool.StartBackground(lmp.RunnerConfig{
		SizeEvery: 5 * time.Millisecond,
		Loads:     loads,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer runner.Stop()

	show := func(label string) {
		fmt.Printf("%-28s shared regions:", label)
		for i := 0; i < 4; i++ {
			fmt.Printf(" s%d=%2d", i, pool.SharedBytes(lmp.ServerID(i))/lmp.SliceSize)
		}
		fmt.Println(" (slices)")
	}

	show("initial (static 50%)")
	time.Sleep(50 * time.Millisecond)
	show("phase A: server0 pool-heavy")

	phase.Store(1)
	time.Sleep(50 * time.Millisecond)
	show("phase B: server0 private")

	_, sizings := runner.Rounds()
	fmt.Printf("\nbackground sizing rounds executed: %d\n", sizings)
	fmt.Println("a physical pool would need DIMMs physically moved to follow these phases")
}
