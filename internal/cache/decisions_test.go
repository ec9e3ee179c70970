package cache

import (
	"math/rand"
	"testing"
)

// TestReplacementDecisionsPinned replays seeded lookup/fill/invalidate
// streams and compares the outcome — which lookups hit, in order, and
// every counter — with values recorded from the implementation that kept
// its index in a tombstoned table and its ghosts in a Go map. How the
// cache stores its metadata must not change what it decides: CLOCK hand
// order, free-slot reuse order, ghost FIFO order, hot/cold promotion.
//
// One difference is deliberate and these streams do not reach it: the
// old ghost FIFO kept a re-admitted page's stale entry, so a page evicted
// again before that entry aged out was forgotten early when it did (and
// a shard whose re-admissions outpaced its evictions grew the FIFO
// without bound). The ghost list now holds each page at most once.
func TestReplacementDecisionsPinned(t *testing.T) {
	for _, tc := range []struct {
		pages, shards int
		seed          int64
		span          uint64
		sig           uint64
		want          Stats
	}{
		{pages: 32, shards: 2, seed: 4, span: 40, sig: 1468865141498274848,
			want: Stats{Hits: 223070, Misses: 47095, Inserts: 47095, Evictions: 29561, Invalidations: 17502, HotPromotions: 46168, GhostReadmits: 29492, Pages: 32}},
		{pages: 512, shards: 16, seed: 8, span: 700, sig: 6549816178220984508,
			want: Stats{Hits: 211351, Misses: 58942, Inserts: 58942, Evictions: 31893, Invalidations: 26542, HotPromotions: 45267, GhostReadmits: 29098, Pages: 507}},
		{pages: 4096, shards: 16, seed: 5, span: 32768, sig: 7292499385380123365,
			want: Stats{Hits: 119134, Misses: 150626, Inserts: 150626, Evictions: 112295, Invalidations: 34235, HotPromotions: 17988, GhostReadmits: 15800, Pages: 4096}},
	} {
		c, err := New(Config{CapacityBytes: int64(tc.pages) * 64, PageSize: 64, Shards: tc.shards})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(tc.seed))
		zipf := rand.NewZipf(rng, 1.2, 1, tc.span-1)
		page := make([]byte, 64)
		dst := make([]byte, 8)
		var sig uint64
		for i := 0; i < 300_000; i++ {
			pg := uint64(rng.Int63n(int64(tc.span)))
			if rng.Intn(2) == 0 {
				pg = zipf.Uint64()
			}
			switch r := rng.Intn(1000); {
			case r < 900:
				if c.ReadAt(pg, dst, 8) {
					sig = sig*31 + pg
				} else {
					c.Put(pg, page)
				}
			case r < 970:
				if c.Invalidate(pg) {
					sig = sig*31 + pg + 7
				}
			case r < 999:
				c.WriteAt(pg, dst, 0)
			default:
				if rng.Intn(20) == 0 {
					c.InvalidateAll()
				}
			}
		}
		if got := c.Stats(); sig != tc.sig || got != tc.want {
			t.Errorf("%d pages, %d shards, span %d: sig %d stats %+v\nwant sig %d stats %+v", tc.pages, tc.shards, tc.span, sig, got, tc.sig, tc.want)
		}
	}
}
