// Zipf-skewed hot-path benchmark for the node-local page cache
// (Config.Cache). The workload is the paper's borrower/lender locality
// story in miniature: eight host servers lend most of their DRAM to the
// pool, a ninth "compute" server shares nothing and works against a
// shared buffer striped across the hosts — so every read of pooled data
// is remote. Reads are cache-line-sized with Zipf-skewed page popularity
// (a small hot set absorbs most accesses), plus a 1% stream of small
// writes to worker-private (also remote) memory. Uncached, every read
// pays the striped lock, the owner's heat counters, and the shared
// telemetry counters; cached, the hot set is served from the compute
// node's private DRAM copy with only a cache-shard mutex touched, and
// the small writes coalesce in the write combiner.
package lmp_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	lmp "github.com/lmp-project/lmp"
)

// BenchmarkPoolZipfReadMostly compares the same skewed workload with the
// page cache off and on. One op = one 64B read at a Zipf-popular page of
// the shared buffer (99%) or one 64B write to worker-private memory (1%).
func BenchmarkPoolZipfReadMostly(b *testing.B) {
	for _, cached := range []bool{false, true} {
		name := "uncached"
		if cached {
			name = "cached"
		}
		b.Run(name, func(b *testing.B) {
			runZipfReadMostly(b, cached)
		})
	}
}

func runZipfReadMostly(b *testing.B, cached bool) {
	const (
		hosts        = 8
		workers      = 8
		sharedSlices = 16
		zipfS        = 1.4
		writeEvery   = 100 // 1% writes
	)
	cfg := lmp.Config{Placement: lmp.Striped}
	for s := 0; s < hosts; s++ {
		cfg.Servers = append(cfg.Servers, lmp.ServerConfig{
			Name: fmt.Sprintf("host%d", s),
			// Hosts lend most of their DRAM to the pool.
			Capacity: 40 * lmp.SliceSize, SharedBytes: 32 * lmp.SliceSize,
		})
	}
	// The compute server lends nothing: its DRAM is all private, so the
	// default cache capacity (a quarter of private DRAM) gives the cache
	// real room and every pooled byte it touches is remote.
	compute := lmp.ServerID(hosts)
	cfg.Servers = append(cfg.Servers, lmp.ServerConfig{
		Name: "compute", Capacity: 64 * lmp.SliceSize,
	})
	cfg.Cache.Enabled = cached
	pool, err := lmp.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	shared, err := pool.Alloc(sharedSlices*lmp.SliceSize, 0)
	if err != nil {
		b.Fatal(err)
	}
	seed := make([]byte, 4096)
	for i := range seed {
		seed[i] = byte(i)
	}
	for off := int64(0); off < shared.Size(); off += int64(len(seed)) {
		if err := pool.Write(0, shared.Addr()+lmp.Logical(off), seed); err != nil {
			b.Fatal(err)
		}
	}
	own := make([]*lmp.Buffer, workers)
	for w := range own {
		if own[w], err = pool.Alloc(lmp.SliceSize, compute); err != nil {
			b.Fatal(err)
		}
	}

	// Pre-sample the Zipf address sequence per worker so the RNG stays
	// out of the measured loop. Page ranks are shuffled to logical pages
	// so the hot set is not physically clustered on one host.
	const pageSize = 4096
	pages := shared.Size() / pageSize
	perm := rand.New(rand.NewSource(1)).Perm(int(pages))
	sequences := make([][]lmp.Logical, workers)
	for w := range sequences {
		r := rand.New(rand.NewSource(int64(w) + 42))
		z := rand.NewZipf(r, zipfS, 1, uint64(pages-1))
		seq := make([]lmp.Logical, 1<<12)
		for i := range seq {
			pageOff := int64(perm[z.Uint64()]) * pageSize
			inPage := (int64(i) * parallelAccessBytes) & (pageSize - parallelAccessBytes)
			seq[i] = shared.Addr() + lmp.Logical(pageOff+inPage)
		}
		sequences[w] = seq
	}

	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		n := b.N / workers
		if w == 0 {
			n += b.N % workers
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rbuf := make([]byte, parallelAccessBytes)
			wbuf := make([]byte, parallelAccessBytes)
			seq := sequences[w]
			writeSpan := int64(lmp.SliceSize - parallelAccessBytes)
			for i := 0; i < n; i++ {
				if i%writeEvery == writeEvery-1 {
					woff := (int64(i) * parallelAccessBytes) % writeSpan
					if err := pool.Write(compute, own[w].Addr()+lmp.Logical(woff), wbuf); err != nil {
						panic(err)
					}
					continue
				}
				if err := pool.Read(compute, seq[i&(len(seq)-1)], rbuf); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if cached {
		st := pool.CacheStats()
		total := st.Hits + st.Misses
		if total > 0 {
			b.ReportMetric(float64(st.Hits)/float64(total), "hitrate")
		}
	}
}
