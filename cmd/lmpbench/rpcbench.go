// The rpc-throughput section of the -json / -compare modes: the payoff
// number for the pipelined multiplexed transport. A serialized baseline
// (callers take turns; one outstanding call per connection, the shape of
// the old lock-step client) races the pipelined client (CallAsync keeps
// every caller's request in flight on the same connection, the batcher
// packs them into shared frames). Both run the identical workload — same
// connection count, payload, and op budget — so ops/sec is directly
// comparable and SpeedupVsSerial is the headline ratio.
package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/lmp-project/lmp/internal/rpc"
)

// rpcConfig pins the rpc workload shape inside the JSON record, like
// zipfConfig does for the pool workload.
type rpcConfig struct {
	Callers      int `json:"callers"`
	Ops          int `json:"ops"`
	PayloadBytes int `json:"payload_bytes"`
	WindowUS     int `json:"window_us"`
}

var defaultRPCConfig = rpcConfig{
	Callers:      8,
	Ops:          40000,
	PayloadBytes: 64,
	WindowUS:     0, // natural batching: frames queued during an in-flight write coalesce
}

// rpcRecord is one transport variant's measured numbers. Latency
// percentiles are per-call wall times sampled from every call in the
// run, not a histogram approximation.
type rpcRecord struct {
	Name            string    `json:"name"`
	OpsPerSec       float64   `json:"ops_per_sec"`
	P50NS           float64   `json:"p50_ns"`
	P99NS           float64   `json:"p99_ns"`
	BatchedCalls    uint64    `json:"batched_calls"`
	MaxBatch        uint64    `json:"max_batch"`
	SpeedupVsSerial float64   `json:"speedup_vs_serial,omitempty"`
	Config          rpcConfig `json:"config"`
}

const methRPCBenchEcho = 1

// minRPCSpeedup is the acceptance floor: pipelining 8 callers on one
// connection must beat the serialized baseline by at least this factor.
const minRPCSpeedup = 3.0

// startRPCBenchServer brings up an in-process echo server on loopback.
func startRPCBenchServer() (*rpc.Server, string) {
	s := rpc.NewServer()
	s.Handle(methRPCBenchEcho, func(p []byte) ([]byte, error) { return p, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "lmpbench: %v\n", err)
		os.Exit(1)
	}
	return s, addr
}

// runRPCVariant drives cfg.Ops echo calls from cfg.Callers goroutines
// over ONE connection and returns ops/sec plus per-call latency
// percentiles. Serialized mode wraps every call in a shared mutex — one
// outstanding call on the wire, the pre-pipelining transport's behavior.
// Pipelined mode lets every caller's CallAsync ride the multiplexed
// pending table and the per-connection batcher.
func runRPCVariant(cfg rpcConfig, pipelined bool) rpcRecord {
	s, addr := startRPCBenchServer()
	defer s.Close()
	c, err := rpc.DialBatched(addr, time.Duration(cfg.WindowUS)*time.Microsecond)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lmpbench: %v\n", err)
		os.Exit(1)
	}
	defer c.Close()

	payload := make([]byte, cfg.PayloadBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	// Warm the connection and the server's accept path off the clock.
	if _, err := c.Call(methRPCBenchEcho, payload); err != nil {
		fmt.Fprintf(os.Stderr, "lmpbench: warm-up call: %v\n", err)
		os.Exit(1)
	}

	var serial sync.Mutex
	lat := make([][]int64, cfg.Callers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Callers; w++ {
		w := w
		n := cfg.Ops / cfg.Callers
		if w == 0 {
			n += cfg.Ops % cfg.Callers
		}
		lat[w] = make([]int64, 0, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				t0 := time.Now()
				var err error
				if pipelined {
					_, err = c.CallAsync(methRPCBenchEcho, payload).Wait()
				} else {
					serial.Lock()
					_, err = c.Call(methRPCBenchEcho, payload)
					serial.Unlock()
				}
				if err != nil {
					panic(fmt.Sprintf("lmpbench: rpc call: %v", err))
				}
				lat[w] = append(lat[w], time.Since(t0).Nanoseconds())
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []int64
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(all)-1))
		return float64(all[idx])
	}
	name := "RPCThroughput/serialized"
	if pipelined {
		name = "RPCThroughput/pipelined"
	}
	st := c.Stats()
	return rpcRecord{
		Name:         name,
		OpsPerSec:    float64(cfg.Ops) / elapsed.Seconds(),
		P50NS:        pct(0.50),
		P99NS:        pct(0.99),
		BatchedCalls: st.BatchedCalls,
		MaxBatch:     st.MaxBatch,
		Config:       cfg,
	}
}

// medianRPCVariant runs a variant three times and keeps the median by
// ops/sec: single runs on a loaded box swing ±20%, and the baseline must
// not record a lucky outlier that every later -compare loses to.
func medianRPCVariant(cfg rpcConfig, pipelined bool) rpcRecord {
	return medianOf3(func() rpcRecord { return runRPCVariant(cfg, pipelined) }, func(r rpcRecord) float64 { return r.OpsPerSec })
}

// runRPCSection measures both variants and computes the headline ratio.
// It hard-fails below minRPCSpeedup — the number the transport rewrite
// exists to deliver — unless soft is set (the -compare path warns
// instead, matching its shared-machine tolerance posture).
func runRPCSection(soft bool) []rpcRecord {
	cfg := defaultRPCConfig
	serial := medianRPCVariant(cfg, false)
	piped := medianRPCVariant(cfg, true)
	piped.SpeedupVsSerial = piped.OpsPerSec / serial.OpsPerSec
	for _, rec := range []rpcRecord{serial, piped} {
		fmt.Printf("%-32s %12.0f ops/s  p50=%7.0fns p99=%7.0fns batched=%d maxbatch=%d\n",
			rec.Name, rec.OpsPerSec, rec.P50NS, rec.P99NS, rec.BatchedCalls, rec.MaxBatch)
	}
	fmt.Printf("%-32s %11.2fx vs serialized (floor %.1fx)\n", "rpc pipelining speedup", piped.SpeedupVsSerial, minRPCSpeedup)
	if piped.SpeedupVsSerial < minRPCSpeedup {
		softFail(soft, fmt.Sprintf("lmpbench: pipelined rpc speedup %.2fx below the %.1fx floor", piped.SpeedupVsSerial, minRPCSpeedup))
	}
	if piped.BatchedCalls == 0 {
		fmt.Fprintln(os.Stderr, "lmpbench: warning: pipelined run coalesced no frames (batching not exercised)")
	}
	return []rpcRecord{serial, piped}
}
