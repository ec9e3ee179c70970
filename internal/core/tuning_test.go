package core

import (
	"testing"
	"time"
)

// TestTuningConstants pins the runtime's own tuning, which Config does
// not carry: the cache shape that follows from a cache's size, the
// balancer's thresholds, the breakers' window and cool-down, and the
// coherent region's size. A change to any of them is a diff of this
// table. The 16-page row is the chaos driver's cache and the 4096-page
// row the benchmark's 16 MiB one.
func TestTuningConstants(t *testing.T) {
	for _, row := range []struct {
		pages            int64
		shards           int
		wcBytes, wcCount int
	}{
		{1, 1, 32, 1},
		{16, 4, 512, 4},
		{1024, 16, 32 << 10, 128},
		{4096, 16, 128 << 10, 128},
	} {
		shards := cacheShards(row.pages)
		wcBytes, wcCount := wcLimits(row.pages, 4096)
		if shards != row.shards || wcBytes != row.wcBytes || wcCount != row.wcCount {
			t.Errorf("%d pages of 4 KiB: %d shards, combiner %d B / %d writes; want %d, %d B / %d",
				row.pages, shards, wcBytes, wcCount, row.shards, row.wcBytes, row.wcCount)
		}
	}

	p, err := New(Config{
		Servers: []ServerConfig{{Capacity: SliceSize, SharedBytes: SliceSize}},
		Tail:    TailConfig{Breaker: BreakerPolicy{Enabled: true, SlowCallNS: 5000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := (migrationPolicy{minAccesses: 16, hysteresis: 2.0, maxMoves: 64}); p.migration != want {
		t.Errorf("migration policy %+v, want %+v", p.migration, want)
	}
	want := breakerPolicy{window: 32, minSamples: 8, failureRatio: 0.5, openFor: 100 * time.Millisecond, halfOpenProbes: 3, slowCallNS: 5000}
	if got := p.tail.breakers[0].pol; got != want {
		t.Errorf("breaker policy %+v, want %+v", got, want)
	}
	if got := len(p.coherent); got != 1<<20 {
		t.Errorf("coherent region %d bytes, want 1 MiB", got)
	}
}
