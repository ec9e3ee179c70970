package core

import (
	"errors"
	"fmt"
)

// PhysicalConfig describes the paper's baseline deployment (§3, §4.1): a
// physically separate pool device behind the fabric, and compute servers
// that lend nothing.
type PhysicalConfig struct {
	// Servers is the number of compute servers; they are pool servers
	// 0..Servers-1 and the device is server Servers.
	Servers int
	// LocalBytes is each compute server's local DRAM, used as its cache
	// of pool pages; zero means every access crosses the fabric.
	LocalBytes int64
	// PoolBytes is the pool device's capacity, rounded down to slices.
	PoolBytes int64
}

// NewPhysical builds the physical-pool baseline. It is the degenerate
// logical pool — one lender holds everything — so it is an ordinary Pool:
// the compute servers share none of their DRAM, the device (the last
// server) shares all of its, and LocalBytes, when positive, is the
// capacity of each server's local page cache (WithLocalCache). Unlike a
// logical pool it cannot borrow server DRAM — an allocation beyond the
// device fails, the Figure 5 infeasibility — and Crash of the device
// loses every byte of every buffer, where a logical pool's server crash
// loses 1/N (§5).
func NewPhysical(pc PhysicalConfig) (*Pool, error) {
	if pc.Servers <= 0 {
		return nil, errors.New("core: physical pool needs servers")
	}
	if pc.LocalBytes < 0 {
		return nil, errors.New("core: negative local bytes")
	}
	device := pc.PoolBytes - pc.PoolBytes%SliceSize
	if device <= 0 {
		return nil, fmt.Errorf("core: physical pool needs a device of at least one %d-byte slice", SliceSize)
	}
	var cfg Config
	for i := 0; i < pc.Servers; i++ {
		cfg.Servers = append(cfg.Servers, ServerConfig{
			Name:     fmt.Sprintf("compute%d", i),
			Capacity: max(pc.LocalBytes, SliceSize),
		})
	}
	cfg.Servers = append(cfg.Servers, ServerConfig{Name: "pool-device", Capacity: device, SharedBytes: device})
	if pc.LocalBytes > 0 {
		cfg.Cache = CacheConfig{Enabled: true, CapacityBytes: pc.LocalBytes}
	}
	return New(cfg)
}
