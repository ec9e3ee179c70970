package core

import (
	"errors"
	"fmt"
)

// This file is the shared-region sizing policy (§5 "Sizing the shared
// regions"): a periodic global optimization choosing how much of each
// server's DRAM joins the pool; SizeOnce (background.go) applies its
// answer. The objective is to maximize weighted local fit — shared demand
// served on its affine server minus private working sets evicted by
// oversharing — while guaranteeing the pool is large enough for
// everything that must live in it.
//
// The optimizer is a greedy water-filling over fixed-size steps: each step
// is granted to the server where it has the highest marginal value, which
// is optimal here because every server's value function is concave
// (marginal gain is non-increasing in the region size).

// ServerLoad describes one server's demands for the optimizer.
type ServerLoad struct {
	// Capacity is the server's DRAM.
	Capacity int64
	// PrivateDemand is the server's own working set; shared bytes beyond
	// Capacity-PrivateDemand evict it.
	PrivateDemand int64
	// PrivateWeight is the value per private byte kept local.
	PrivateWeight float64
	// SharedDemand is pool data with affinity to this server (its apps
	// access it); shared bytes up to SharedDemand serve it locally.
	SharedDemand int64
	// SharedWeight is the value per shared-demand byte served locally
	// (high-value applications get larger weights, as §5 prescribes).
	SharedWeight float64
}

// errSizingInfeasible reports that even maximal shared regions cannot
// reach the required pool size.
var errSizingInfeasible = errors.New("sizing: required pool exceeds total capacity")

// sizingResult is the optimizer's output.
type sizingResult struct {
	// SharedBytes is the chosen shared-region size per server.
	SharedBytes []int64
	// Value is the achieved objective.
	Value float64
	// LocalSharedBytes is the shared demand served locally, per server.
	LocalSharedBytes []int64
}

// sizingMarginal returns the value of growing server s's shared region from
// cur by step bytes.
func sizingMarginal(s ServerLoad, cur, step int64) float64 {
	var gain float64
	// Shared demand still unserved locally?
	if served := min(cur, s.SharedDemand); served < s.SharedDemand {
		gain += s.SharedWeight * float64(min(step, s.SharedDemand-served))
	}
	// Private eviction cost.
	privRoom := s.Capacity - cur // DRAM left for private before this step
	keep := min(privRoom, s.PrivateDemand)
	privRoomAfter := s.Capacity - cur - step
	keepAfter := min(privRoomAfter, s.PrivateDemand)
	if keepAfter < keep {
		gain -= s.PrivateWeight * float64(keep-keepAfter)
	}
	return gain
}

// optimizeSizes chooses shared-region sizes. requiredPool is the total bytes
// the pool must provide (allocated/incoming data); step is the adjustment
// granularity (e.g. a 2MiB slice). Sizes are multiples of step, clamped
// to capacities.
func optimizeSizes(servers []ServerLoad, requiredPool, step int64) (sizingResult, error) {
	if len(servers) == 0 {
		return sizingResult{}, errors.New("sizing: no servers")
	}
	if step <= 0 {
		return sizingResult{}, fmt.Errorf("sizing: step %d must be positive", step)
	}
	if requiredPool < 0 {
		return sizingResult{}, fmt.Errorf("sizing: required pool %d negative", requiredPool)
	}
	var totalCap int64
	for i, s := range servers {
		if s.Capacity <= 0 {
			return sizingResult{}, fmt.Errorf("sizing: server %d has no capacity", i)
		}
		totalCap += s.Capacity
	}
	if requiredPool > totalCap {
		return sizingResult{}, fmt.Errorf("%w: need %d, have %d", errSizingInfeasible, requiredPool, totalCap)
	}

	shared := make([]int64, len(servers))
	var total int64
	var value float64

	// Phase 1: grow while marginal value is positive (voluntary sharing).
	for {
		best, bestV := -1, 0.0
		for i, s := range servers {
			if shared[i]+step > s.Capacity {
				continue
			}
			if v := sizingMarginal(s, shared[i], step); v > bestV {
				best, bestV = i, v
			}
		}
		if best < 0 {
			break
		}
		shared[best] += step
		total += step
		value += bestV
	}
	// Phase 2: if the pool is still too small, force growth where it
	// hurts least.
	for total < requiredPool {
		best := -1
		bestV := 0.0
		for i, s := range servers {
			if shared[i]+step > s.Capacity {
				continue
			}
			v := sizingMarginal(s, shared[i], step)
			if best < 0 || v > bestV {
				best, bestV = i, v
			}
		}
		if best < 0 {
			return sizingResult{}, fmt.Errorf("%w: stuck at %d of %d", errSizingInfeasible, total, requiredPool)
		}
		shared[best] += step
		total += step
		value += bestV
	}

	res := sizingResult{SharedBytes: shared, Value: value}
	res.LocalSharedBytes = make([]int64, len(servers))
	for i, s := range servers {
		res.LocalSharedBytes[i] = min(shared[i], s.SharedDemand)
	}
	return res, nil
}
