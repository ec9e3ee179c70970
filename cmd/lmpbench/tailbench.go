// The tail-latency section of the -json / -compare modes (and the
// standalone `-experiment tail`): the payoff number for hedged replica
// reads. A primary daemon with a seeded heavy-tail delay profile (a few
// percent of requests stall for milliseconds — the paper's shared-pool
// interference case) serves the same workload twice: once unhedged, once
// with rpc.Hedger racing a fast replica after the adaptive delay. The
// headline ratio is unhedged p99 over hedged p99; absolute percentiles
// track the machine, the ratio cancels shared jitter.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/lmp-project/lmp/internal/rpc"
)

// tailConfig pins the tail workload shape inside the JSON record.
type tailConfig struct {
	Ops          int `json:"ops"`
	PayloadBytes int `json:"payload_bytes"`
	SlowPct      int `json:"slow_pct"`      // percent of primary calls that stall
	SlowDelayUS  int `json:"slow_delay_us"` // stall duration
}

// The stall is deliberately deep (20ms): on idle or virtualized hosts a
// sub-millisecond hedge timer can fire milliseconds late (Go's parked-P
// timer wake latency), so the stall must dwarf that jitter for the
// improvement ratio to measure hedging rather than the host's timer
// granularity.
var defaultTailConfig = tailConfig{
	Ops:          2000,
	PayloadBytes: 64,
	SlowPct:      8,
	SlowDelayUS:  20000,
}

// tailRecord is one variant's measured latency distribution. The hedged
// record carries the headline P99ImprovementX ratio (unhedged p99 over
// hedged p99); that ratio, not the raw nanoseconds, is what -compare
// gates on.
type tailRecord struct {
	Name            string     `json:"name"`
	P50NS           float64    `json:"p50_ns"`
	P99NS           float64    `json:"p99_ns"`
	P999NS          float64    `json:"p999_ns"`
	Hedges          uint64     `json:"hedges,omitempty"`
	HedgeWins       uint64     `json:"hedge_wins,omitempty"`
	P99ImprovementX float64    `json:"p99_improvement_x,omitempty"`
	Config          tailConfig `json:"config"`
}

const methTailBenchEcho = 1

// minTailImprovement is the acceptance floor: hedging against a fast
// replica must cut the heavy-tail p99 by at least this factor.
const minTailImprovement = 2.0

// startTailBenchServer brings up an echo server; when slow, a seeded
// fraction of its calls stall for the configured delay — the degraded
// primary. The replica runs the same handler with slow=false.
func startTailBenchServer(cfg tailConfig, slow bool, seed int64) (*rpc.Server, string) {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	s := rpc.NewServer()
	s.Handle(methTailBenchEcho, func(p []byte) ([]byte, error) {
		if slow {
			mu.Lock()
			stall := rng.Intn(100) < cfg.SlowPct
			mu.Unlock()
			if stall {
				time.Sleep(time.Duration(cfg.SlowDelayUS) * time.Microsecond)
			}
		}
		return p, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "lmpbench: %v\n", err)
		os.Exit(1)
	}
	return s, addr
}

// runTailVariant drives cfg.Ops sequential echo calls against the
// degraded primary — hedged against a fast replica or not — and returns
// the per-call latency percentiles.
func runTailVariant(cfg tailConfig, hedged bool) tailRecord {
	sp, addrP := startTailBenchServer(cfg, true, 11)
	defer sp.Close()
	sr, addrR := startTailBenchServer(cfg, false, 13)
	defer sr.Close()
	cp, err := rpc.Dial(addrP)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lmpbench: %v\n", err)
		os.Exit(1)
	}
	defer cp.Close()
	cr, err := rpc.Dial(addrR)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lmpbench: %v\n", err)
		os.Exit(1)
	}
	defer cr.Close()

	var h *rpc.Hedger
	if hedged {
		// Track the median, not the default p95: with SlowPct at 8% the
		// p95 sits inside the stall cluster and the adaptive delay would
		// chase the very tail it is meant to cut. Median×3 with a 1ms cap
		// keeps the delay just above healthy latency.
		h = rpc.NewHedger(cp, cr, rpc.HedgePolicy{
			Quantile:   0.50,
			Multiplier: 3,
			MinDelay:   100 * time.Microsecond,
			MaxDelay:   time.Millisecond,
		})
	}
	call := func(p []byte) ([]byte, error) {
		if h != nil {
			return h.Call(methTailBenchEcho, p)
		}
		return cp.Call(methTailBenchEcho, p)
	}

	payload := make([]byte, cfg.PayloadBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	// Warm both connections (and the hedge tracker's cold start) off the
	// clock.
	for i := 0; i < 20; i++ {
		if _, err := call(payload); err != nil {
			fmt.Fprintf(os.Stderr, "lmpbench: warm-up call: %v\n", err)
			os.Exit(1)
		}
	}

	lat := make([]int64, 0, cfg.Ops)
	for i := 0; i < cfg.Ops; i++ {
		t0 := time.Now()
		if _, err := call(payload); err != nil {
			fmt.Fprintf(os.Stderr, "lmpbench: tail call: %v\n", err)
			os.Exit(1)
		}
		lat = append(lat, time.Since(t0).Nanoseconds())
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) float64 {
		return float64(lat[int(p*float64(len(lat)-1))])
	}
	rec := tailRecord{
		Name:   "TailLatency/unhedged",
		P50NS:  pct(0.50),
		P99NS:  pct(0.99),
		P999NS: pct(0.999),
		Config: cfg,
	}
	if hedged {
		rec.Name = "TailLatency/hedged"
		st := h.Stats()
		rec.Hedges = st.Hedges
		rec.HedgeWins = st.HedgeWins
	}
	return rec
}

// medianTailVariant keeps the median of three runs by p99, so the
// baseline doesn't record a lucky (or unlucky) outlier.
func medianTailVariant(cfg tailConfig, hedged bool) tailRecord {
	return medianOf3(func() tailRecord { return runTailVariant(cfg, hedged) }, func(r tailRecord) float64 { return r.P99NS })
}

// runTailSection measures both variants and computes the headline p99
// ratio. It hard-fails below minTailImprovement unless soft is set (the
// -compare path warns instead).
func runTailSection(soft bool) []tailRecord {
	cfg := defaultTailConfig
	unhedged := medianTailVariant(cfg, false)
	hedged := medianTailVariant(cfg, true)
	hedged.P99ImprovementX = unhedged.P99NS / hedged.P99NS
	for _, rec := range []tailRecord{unhedged, hedged} {
		fmt.Printf("%-32s p50=%8.0fns p99=%9.0fns p99.9=%9.0fns hedges=%d wins=%d\n",
			rec.Name, rec.P50NS, rec.P99NS, rec.P999NS, rec.Hedges, rec.HedgeWins)
	}
	fmt.Printf("%-32s %11.2fx p99 vs unhedged (floor %.1fx)\n",
		"hedged read improvement", hedged.P99ImprovementX, minTailImprovement)
	if hedged.P99ImprovementX < minTailImprovement {
		softFail(soft, fmt.Sprintf("lmpbench: hedged p99 improvement %.2fx below the %.1fx floor",
			hedged.P99ImprovementX, minTailImprovement))
	}
	if hedged.Hedges == 0 {
		fmt.Fprintln(os.Stderr, "lmpbench: warning: hedged run fired no hedges (tail not exercised)")
	}
	return []tailRecord{unhedged, hedged}
}
