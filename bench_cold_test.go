// Cold-side benchmark for the node-local page cache (Config.Cache):
// the other half of bench_cache_test.go. A compute server that lends
// nothing works against a striped buffer eight times the size of its
// cache, so a read almost always misses (fill, CLOCK eviction, ghost
// list, directory registration) and a small write is buffered by the
// write combiner and applied by a threshold flush every ~128 writes.
// Run with -benchmem: the steady state of all three arms is 0 B/op and
// 0 allocs/op, and that is what this benchmark is for.
package lmp_test

import (
	"fmt"
	"testing"

	lmp "github.com/lmp-project/lmp"
)

// BenchmarkPoolColdMix reports the read-miss path, the buffered-write
// path (flushes included) and the pool_cold mix of the two (70% 64 B
// reads, 30% 256 B writes) separately.
func BenchmarkPoolColdMix(b *testing.B) {
	for _, arm := range []struct {
		name     string
		writePct int
	}{{"read-miss", 0}, {"buffered-write", 100}, {"mix-70r-30w", 30}} {
		b.Run(arm.name, func(b *testing.B) { runColdMix(b, arm.writePct) })
	}
}

func runColdMix(b *testing.B, writePct int) {
	const (
		hosts      = 4
		cacheBytes = 2 << 20
		bufBytes   = 8 * cacheBytes
		pageSize   = 4096
		readSize   = 64
		writeSize  = 256
	)
	cfg := lmp.Config{Placement: lmp.Striped}
	for s := 0; s < hosts; s++ {
		cfg.Servers = append(cfg.Servers, lmp.ServerConfig{
			Name: fmt.Sprintf("host%d", s), Capacity: 16 * lmp.SliceSize, SharedBytes: 8 * lmp.SliceSize,
		})
	}
	compute := lmp.ServerID(hosts)
	cfg.Servers = append(cfg.Servers, lmp.ServerConfig{Name: "compute", Capacity: 16 * lmp.SliceSize})
	cfg.Cache = lmp.CacheConfig{Enabled: true, CapacityBytes: cacheBytes, PageSize: pageSize}
	pool, err := lmp.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	buf, err := pool.Alloc(bufBytes, 0)
	if err != nil {
		b.Fatal(err)
	}
	// Prefill, so every memnode page is materialised before the clock starts.
	fill := make([]byte, lmp.SliceSize)
	for off := int64(0); off < bufBytes; off += int64(len(fill)) {
		if err := pool.Write(0, buf.Addr()+lmp.Logical(off), fill); err != nil {
			b.Fatal(err)
		}
	}
	rbuf := make([]byte, readSize)
	wbuf := make([]byte, writeSize)
	// A fixed-stride walk with a stride coprime to the page count visits
	// every page before repeating one, so with a buffer 8x the cache no
	// read finds its page resident and no write finds its predecessor
	// still buffered.
	const pages = bufBytes / pageSize
	op := func(i int) error {
		page := int64(i) * 2654435761 % pages
		if i%100 < writePct {
			off := page*pageSize + int64(i/pages%(pageSize/writeSize))*writeSize
			return pool.Write(compute, buf.Addr()+lmp.Logical(off), wbuf)
		}
		off := page*pageSize + int64(i%(pageSize/readSize))*readSize
		return pool.Read(compute, buf.Addr()+lmp.Logical(off), rbuf)
	}
	// Warm until every page was touched twice: the cache, its ghost lists
	// and the directory are full and the combiner has cycled both arenas.
	for i := 0; i < 2*pages; i++ {
		if err := op(i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(2*pages + i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := pool.CacheStats()
	if total := st.Hits + st.Misses; total > 0 {
		b.ReportMetric(float64(st.Hits)/float64(total), "hitrate")
	}
	b.ReportMetric(float64(st.Flushes)/float64(b.N+2*pages), "flushes/op")
}
