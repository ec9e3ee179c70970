package model

import (
	"fmt"
	"math"

	"github.com/lmp-project/lmp/internal/fabric"
	"github.com/lmp-project/lmp/internal/sim"
	"github.com/lmp-project/lmp/internal/workload"
)

// vectorSumBandwidthDES replays one steady-state repetition of the §4
// microbenchmark on the discrete-event fabric simulator at a scaled-down
// size, and reports the achieved bandwidth. It cross-validates the fluid
// model: every byte flows through simulated cores (closed-loop, bounded
// MLP), memory devices, and fabric ports instead of an analytic solver.
//
// scale divides the vector (and implicitly the placement spans);
// chunkBytes is the access granularity (smaller is more faithful but
// generates more events).
func vectorSumBandwidthDES(cfg VectorSumConfig, scale int64, chunkBytes int) (float64, error) {
	cfg.fillDefaults()
	d := cfg.Deployment
	if d == nil {
		return 0, fmt.Errorf("model: no deployment")
	}
	if err := d.Validate(); err != nil {
		return 0, err
	}
	if scale <= 0 || chunkBytes <= 0 {
		return 0, fmt.Errorf("model: bad scale %d or chunk %d", scale, chunkBytes)
	}
	if cfg.VectorBytes > d.PoolCapacity() {
		return 0, fmt.Errorf("model: vector exceeds pool capacity")
	}
	steady, _ := placements(cfg)

	eng := sim.NewEngine()
	net := fabric.NewNetwork(eng)
	endpoints := make([]*fabric.Endpoint, len(d.Servers))
	for i, s := range d.Servers {
		endpoints[i] = net.AddEndpoint(s.Name, d.Link, d.LocalMem)
	}
	// The pool device gets a thick link (aggregate of the server ports).
	deviceLink := d.Link
	deviceLink.Bandwidth *= float64(max(d.PoolPortCount(), 1))
	device := net.AddEndpoint("pool-device", deviceLink, d.LocalMem)

	accessor := endpoints[cfg.Accessor]
	localLat := d.LocalMem.Latency.MinNS
	remoteLat := d.Link.Latency.MinNS

	// Per-core chunk-level MLP matched to the core's streaming bound via
	// Little's law: BW = MLP * chunk / latency.
	mlpFor := func(lat float64) int {
		bw := d.Core.StreamBandwidth(lat)
		m := int(math.Round(bw * lat * 1e-9 / float64(chunkBytes)))
		if m < 1 {
			m = 1
		}
		return m
	}

	type seg struct {
		bytes  int64
		target *fabric.Endpoint
		mlp    int
	}
	scaledVector := cfg.VectorBytes / scale
	if scaledVector < int64(chunkBytes) {
		return 0, fmt.Errorf("model: scaled vector %d below chunk size", scaledVector)
	}
	parts := workload.Partition(scaledVector, d.Servers[cfg.Accessor].Cores)
	var plans [][]seg
	for _, part := range parts {
		var plan []seg
		pos, end := part.Start, part.Start+part.Size
		var spanStart int64
		for _, sp := range steady {
			spanEnd := spanStart + sp.bytes/scale
			lo, hi := max(pos, spanStart), min(end, spanEnd)
			if hi > lo {
				s := seg{bytes: hi - lo}
				if sp.class.local {
					s.target = accessor
					s.mlp = mlpFor(localLat)
				} else if sp.class.source < 0 {
					s.target = device
					s.mlp = mlpFor(remoteLat)
				} else {
					s.target = endpoints[sp.class.source]
					s.mlp = mlpFor(remoteLat)
				}
				plan = append(plan, s)
			}
			spanStart = spanEnd
		}
		plans = append(plans, plan)
	}

	// Closed-loop execution: each core walks its plan, keeping up to the
	// segment's MLP chunk reads outstanding.
	var totalBytes int64
	for c := range plans {
		plan := plans[c]
		if len(plan) == 0 {
			continue
		}
		for _, s := range plan {
			totalBytes += s.bytes
		}
		segIdx := 0
		remaining := plan[0].bytes
		inflight := 0
		var pump func()
		pump = func() {
			for {
				if remaining == 0 {
					if inflight > 0 {
						return // drain before switching segments
					}
					segIdx++
					if segIdx >= len(plan) {
						return
					}
					remaining = plan[segIdx].bytes
				}
				s := plan[segIdx]
				if inflight >= s.mlp {
					return
				}
				n := int64(chunkBytes)
				if remaining < n {
					n = remaining
				}
				remaining -= n
				inflight++
				net.Read(accessor, s.target, int(n), func() {
					inflight--
					pump()
				})
			}
		}
		eng.After(0, pump)
	}
	eng.Run()
	elapsed := eng.Now().Sub(0).Seconds()
	if elapsed <= 0 {
		return 0, fmt.Errorf("model: DES produced no elapsed time")
	}
	return float64(totalBytes) / elapsed, nil
}
