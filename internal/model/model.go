// Package model is the paper's evaluation model (§4): the vector-sum
// microbenchmark behind Figures 2-5 on a fluid bandwidth model calibrated
// by internal/memsim's profiles, and the §4.4 shipped aggregation. Its
// tests cross-validate it against a discrete-event replay and measure the
// §4.3 loaded latencies. It is not part of the runtime: internal/core and
// the lmp package do not import it, and cmd/lmpbench regenerates the
// paper's figures from it.
package model

import (
	"fmt"

	"github.com/lmp-project/lmp/internal/memsim"
	"github.com/lmp-project/lmp/internal/topology"
	"github.com/lmp-project/lmp/internal/workload"
)

// CacheMode selects how the analytic model lets a physical-pool server
// use its local DRAM. (The functional runtime has one cache,
// internal/cache behind core.Config.Cache; see core.NewPhysical.)
type CacheMode int

const (
	// NoCache: every pool access crosses the fabric (the paper's
	// "Physical no-cache" configuration).
	NoCache CacheMode = iota
	// PinnedCache: local DRAM permanently caches the first bytes of pool
	// data it touches ("Physical cache": caching incurs an upfront memcpy
	// but provides faster subsequent reads).
	PinnedCache
	// LRUCache: local DRAM is a demand-filled LRU page cache (the
	// thrash-prone alternative; cyclic scans larger than the cache get
	// zero hits).
	LRUCache
)

// VectorSumConfig parameterizes the §4 microbenchmark: one server's cores
// sum a vector living in disaggregated memory, repeated Reps times, and
// the average bandwidth is reported.
type VectorSumConfig struct {
	Deployment  *topology.Deployment
	VectorBytes int64
	// Reps is the repetition count (the paper uses 10).
	Reps int
	// Accessor is the index of the server running the sum.
	Accessor int
	// Cache selects the caching behaviour for PhysicalCache deployments
	// (PinnedCache by default, matching the paper's upfront-memcpy
	// description).
	Cache CacheMode
}

func (c *VectorSumConfig) fillDefaults() {
	if c.Reps == 0 {
		c.Reps = 10
	}
	if c.Deployment != nil && c.Deployment.Kind == topology.PhysicalCache && c.Cache == NoCache {
		c.Cache = PinnedCache
	}
}

// BandwidthResult reports a modeled vector-sum experiment.
type BandwidthResult struct {
	// Feasible is false when the deployment cannot hold the vector at
	// all (the Figure 5 case for physical pools).
	Feasible bool
	Reason   string
	// BandwidthBps is the average achieved bandwidth over all reps.
	BandwidthBps float64
	// FirstRepSec and SteadyRepSec expose the warm-up effect of caching.
	FirstRepSec  float64
	SteadyRepSec float64
	// LocalFraction is the share of vector bytes served from the
	// accessor's local memory in steady state.
	LocalFraction float64
}

// span is a contiguous piece of the vector with one access class.
type span struct {
	bytes int64
	class accessClass
}

type accessClass struct {
	// local is true when the span is served from the accessor's DRAM.
	local bool
	// source indexes the serving remote endpoint (a server for logical
	// pools, -1 for the pool device).
	source int
}

// VectorSumBandwidth evaluates the microbenchmark on the fluid bandwidth
// model calibrated by the deployment's profiles.
func VectorSumBandwidth(cfg VectorSumConfig) (BandwidthResult, error) {
	cfg.fillDefaults()
	d := cfg.Deployment
	if d == nil {
		return BandwidthResult{}, fmt.Errorf("model: no deployment")
	}
	if err := d.Validate(); err != nil {
		return BandwidthResult{}, err
	}
	if cfg.VectorBytes <= 0 {
		return BandwidthResult{}, fmt.Errorf("model: vector of %d bytes", cfg.VectorBytes)
	}
	if cfg.Accessor < 0 || cfg.Accessor >= len(d.Servers) {
		return BandwidthResult{}, fmt.Errorf("model: accessor %d out of range", cfg.Accessor)
	}
	if cfg.VectorBytes > d.PoolCapacity() {
		return BandwidthResult{
			Feasible: false,
			Reason: fmt.Sprintf("vector %dGB exceeds pool capacity %dGB; reconfiguring requires physically moving DIMMs",
				cfg.VectorBytes/memsim.GB, d.PoolCapacity()/memsim.GB),
		}, nil
	}

	steady, warm := placements(cfg)
	steadyTime, err := repTime(cfg, steady, 0)
	if err != nil {
		return BandwidthResult{}, err
	}
	warmTime := steadyTime
	if warm != nil {
		warmTime, err = repTime(cfg, warm.spans, warm.fillBytes)
		if err != nil {
			return BandwidthResult{}, err
		}
	}
	total := warmTime + float64(cfg.Reps-1)*steadyTime
	var localBytes int64
	for _, sp := range steady {
		if sp.class.local {
			localBytes += sp.bytes
		}
	}
	return BandwidthResult{
		Feasible:      true,
		BandwidthBps:  float64(cfg.Reps) * float64(cfg.VectorBytes) / total,
		FirstRepSec:   warmTime,
		SteadyRepSec:  steadyTime,
		LocalFraction: float64(localBytes) / float64(cfg.VectorBytes),
	}, nil
}

type warmPhase struct {
	spans     []span
	fillBytes int64
}

// placements computes the steady-state access spans and, for caching
// physical pools, the distinct warm-up rep.
func placements(cfg VectorSumConfig) (steady []span, warm *warmPhase) {
	d := cfg.Deployment
	v := cfg.VectorBytes
	switch d.Kind {
	case topology.Logical:
		// Locality-aware placement: fill the accessor's shared region,
		// spread the remainder evenly over the other servers.
		local := d.Servers[cfg.Accessor].SharedBytes
		if local > v {
			local = v
		}
		if local > 0 {
			steady = append(steady, span{bytes: local, class: accessClass{local: true}})
		}
		remaining := v - local
		others := len(d.Servers) - 1
		if remaining > 0 && others > 0 {
			parts := workload.Partition(remaining, others)
			i := 0
			for s := range d.Servers {
				if s == cfg.Accessor {
					continue
				}
				if parts[i].Size > 0 {
					steady = append(steady, span{bytes: parts[i].Size, class: accessClass{source: s}})
				}
				i++
			}
		}
		return steady, nil

	case topology.PhysicalNoCache:
		return []span{{bytes: v, class: accessClass{source: -1}}}, nil

	case topology.PhysicalCache:
		cacheBytes := d.Servers[cfg.Accessor].TotalBytes
		if cacheBytes > v {
			cacheBytes = v
		}
		switch cfg.Cache {
		case LRUCache:
			if v > d.Servers[cfg.Accessor].TotalBytes {
				// A cyclic scan larger than the cache never hits LRU:
				// steady state equals the warm rep, with fill traffic.
				all := []span{{bytes: v, class: accessClass{source: -1}}}
				return all, &warmPhase{spans: all, fillBytes: cacheBytes}
			}
			fallthrough
		default: // PinnedCache, or LRU with a fitting vector
			steady = []span{}
			if cacheBytes > 0 {
				steady = append(steady, span{bytes: cacheBytes, class: accessClass{local: true}})
			}
			if v > cacheBytes {
				steady = append(steady, span{bytes: v - cacheBytes, class: accessClass{source: -1}})
			}
			warm = &warmPhase{
				spans:     []span{{bytes: v, class: accessClass{source: -1}}},
				fillBytes: cacheBytes,
			}
			return steady, warm
		}
	}
	return nil, nil
}

// repTime runs the fluid model for one repetition over the given spans.
// fillBytes adds a concurrent cache-fill flow through the accessor's
// local memory (the upfront memcpy).
func repTime(cfg VectorSumConfig, spans []span, fillBytes int64) (float64, error) {
	d := cfg.Deployment
	cores := d.Servers[cfg.Accessor].Cores

	// Shared resources.
	localMem := &memsim.FluidResource{Name: "accessor/mem", Rate: d.LocalMem.Bandwidth}
	ingress := &memsim.FluidResource{Name: "accessor/in", Rate: d.Link.Bandwidth}
	remoteMem := make(map[int]*memsim.FluidResource)
	remoteEgr := make(map[int]*memsim.FluidResource)
	for s := range d.Servers {
		if s == cfg.Accessor {
			continue
		}
		remoteMem[s] = &memsim.FluidResource{Name: fmt.Sprintf("srv%d/mem", s), Rate: d.LocalMem.Bandwidth}
		remoteEgr[s] = &memsim.FluidResource{Name: fmt.Sprintf("srv%d/out", s), Rate: d.Link.Bandwidth}
	}
	// Pool device: memory at DRAM speed, egress provisioned with enough
	// ports to match aggregate server links (§4.2's thick link).
	deviceMem := &memsim.FluidResource{Name: "pool/mem", Rate: d.LocalMem.Bandwidth}
	deviceEgr := &memsim.FluidResource{
		Name: "pool/out",
		Rate: d.Link.Bandwidth * float64(max(d.PoolPortCount(), 1)),
	}

	localLat := d.LocalMem.Latency.MinNS
	remoteLat := d.Link.Latency.MinNS

	parts := workload.Partition(cfg.VectorBytes, cores)
	var flows []*memsim.Flow
	for c, part := range parts {
		f := &memsim.Flow{Name: fmt.Sprintf("core%d", c)}
		pos := part.Start
		end := part.Start + part.Size
		// Walk the spans overlapping this core's chunk, in order.
		var spanStart int64
		for _, sp := range spans {
			spanEnd := spanStart + sp.bytes
			lo, hi := max(pos, spanStart), min(end, spanEnd)
			if hi > lo {
				var via []*memsim.FluidResource
				if sp.class.local {
					coreRes := &memsim.FluidResource{
						Name: fmt.Sprintf("core%d/l", c),
						Rate: d.Core.StreamBandwidth(localLat),
					}
					via = []*memsim.FluidResource{coreRes, localMem}
				} else {
					coreRes := &memsim.FluidResource{
						Name: fmt.Sprintf("core%d/r%d", c, sp.class.source),
						Rate: d.Core.StreamBandwidth(remoteLat),
					}
					if sp.class.source < 0 {
						via = []*memsim.FluidResource{coreRes, deviceMem, deviceEgr, ingress}
					} else {
						s := sp.class.source
						via = []*memsim.FluidResource{coreRes, remoteMem[s], remoteEgr[s], ingress}
					}
				}
				f.Segments = append(f.Segments, memsim.Segment{Bytes: float64(hi - lo), Via: via})
			}
			spanStart = spanEnd
		}
		if len(f.Segments) > 0 {
			flows = append(flows, f)
		}
	}
	if fillBytes > 0 {
		flows = append(flows, &memsim.Flow{
			Name:     "cache-fill",
			Segments: []memsim.Segment{{Bytes: float64(fillBytes), Via: []*memsim.FluidResource{localMem}}},
		})
	}
	res, err := memsim.SimulateFluid(flows)
	if err != nil {
		return 0, err
	}
	return res.MakespanSec, nil
}

// NearMemoryResult reports the §4.4 computation-shipping experiment.
type NearMemoryResult struct {
	BandwidthBps float64
	// SpeedupVsPull compares against the same deployment summing by
	// pulling all data to one server.
	SpeedupVsPull float64
}

// shippingOverheadSec is the modeled cost of dispatching tasks and
// gathering partial results (a few RPCs).
const shippingOverheadSec = 50e-6

// NearMemorySum models the distributed sum: each server's cores reduce
// the locally resident part of the vector, and only partials travel.
func NearMemorySum(cfg VectorSumConfig) (NearMemoryResult, error) {
	cfg.fillDefaults()
	d := cfg.Deployment
	if d == nil || d.Kind != topology.Logical {
		return NearMemoryResult{}, fmt.Errorf("model: near-memory computing requires a logical deployment")
	}
	pull, err := VectorSumBandwidth(cfg)
	if err != nil {
		return NearMemoryResult{}, err
	}
	if !pull.Feasible {
		return NearMemoryResult{}, fmt.Errorf("model: %s", pull.Reason)
	}
	steady, _ := placements(cfg)
	var flows []*memsim.Flow
	spanStart := int64(0)
	for _, sp := range steady {
		server := cfg.Accessor
		if !sp.class.local {
			server = sp.class.source
		}
		mem := &memsim.FluidResource{Name: fmt.Sprintf("srv%d/mem", server), Rate: d.LocalMem.Bandwidth}
		cores := d.Servers[server].Cores
		parts := workload.Partition(sp.bytes, cores)
		for c, part := range parts {
			if part.Size == 0 {
				continue
			}
			coreRes := &memsim.FluidResource{
				Name: fmt.Sprintf("srv%d/core%d", server, c),
				Rate: d.Core.StreamBandwidth(d.LocalMem.Latency.MinNS),
			}
			flows = append(flows, &memsim.Flow{
				Name:     fmt.Sprintf("srv%d/core%d", server, c),
				Segments: []memsim.Segment{{Bytes: float64(part.Size), Via: []*memsim.FluidResource{coreRes, mem}}},
			})
		}
		spanStart += sp.bytes
	}
	res, err := memsim.SimulateFluid(flows)
	if err != nil {
		return NearMemoryResult{}, err
	}
	t := res.MakespanSec + shippingOverheadSec
	bw := float64(cfg.VectorBytes) / t
	return NearMemoryResult{
		BandwidthBps:  bw,
		SpeedupVsPull: bw / pull.BandwidthBps,
	}, nil
}
