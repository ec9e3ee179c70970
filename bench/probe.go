package main

import (
	"fmt"
	"math/rand"

	lmp "github.com/lmp-project/lmp"
	"github.com/lmp-project/lmp/internal/cache"
	"github.com/lmp-project/lmp/internal/coherence"
	"github.com/lmp-project/lmp/internal/memnode"
	"github.com/lmp-project/lmp/internal/rpc"
)

// Layer probes: where the harness cannot put a span inside the program,
// it calls the inner layer's exported function directly, with the
// workload's sizes, and the traced run derives self times by
// subtraction. Probes run on one goroutine after the rounds.

const probeBatches = 51

// probe times batches of calls to body and returns the median over the
// batches of nanoseconds per call. prep, if set, runs untimed before
// each batch.
func probe(batch int, prep func(), body func(i int)) float64 {
	per := make([]float64, probeBatches)
	i := 0
	for b := range per {
		if prep != nil {
			prep()
		}
		start := now()
		for end := i + batch; i < end; i++ {
			body(i)
		}
		per[b] = float64(now()-start) / float64(batch)
	}
	return median(per)
}

// batchFor sizes a batch so it moves about 1 MiB: long enough to time,
// short enough that 51 of them stay in the tens of milliseconds.
func batchFor(size int) int { return max(16, min(4096, (1<<20)/size)) }

// probeMemnode times Node.ReadAt and WriteAt on a materialized region at
// the size one access of the workload has when it reaches memnode and,
// for a cached workload, ReadAt of one 4 KiB page, the size of a fill.
func probeMemnode(m map[string]float64, sp *spec, rng *rand.Rand) error {
	const region = 16 << 20
	node, err := memnode.New("probe", region, region)
	if err != nil {
		return err
	}
	buf := make([]byte, max(sp.accessSize, cachePage))
	for off := int64(0); off < region; off += int64(len(buf)) {
		if err := node.WriteAt(buf, off); err != nil {
			return err
		}
	}
	offsets := func(size int) []int64 {
		o := make([]int64, 4096)
		for i := range o {
			o[i] = rng.Int63n(int64(region/size)) * int64(size)
		}
		return o
	}
	at := offsets(sp.accessSize)
	acc := buf[:sp.accessSize]
	m["memnode.read_ns"] = probe(batchFor(sp.accessSize), nil, func(i int) { _ = node.ReadAt(acc, at[i%len(at)]) })
	m["memnode.write_ns"] = probe(batchFor(sp.accessSize), nil, func(i int) { _ = node.WriteAt(acc, at[i%len(at)]) })
	if sp.cache {
		fill := offsets(cachePage)
		m["memnode.fill_read_ns"] = probe(batchFor(cachePage), nil, func(i int) { _ = node.ReadAt(buf[:cachePage], fill[i%len(fill)]) })
	}
	return nil
}

// probeEcho times rpc.Client.Call against an rpc.Server whose handler
// only allocates the reply: a read-shaped exchange (12-byte request,
// accessSize reply) with one caller, so everything daemon.Server and
// memnode add is absent.
func probeEcho(m map[string]float64, sp *spec, ns int64) error {
	srv := rpc.NewServer()
	srv.Handle(1, func([]byte) ([]byte, error) { return make([]byte, sp.accessSize), nil })
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("%w: %v", errListen, err)
	}
	defer srv.Close()
	c, err := rpc.Dial(bound)
	if err != nil {
		return err
	}
	defer c.Close()
	req := make([]byte, 12)
	var h hist
	for until := now() + ns; ; {
		start := now()
		if _, err := c.Call(1, req); err != nil {
			return err
		}
		end := now()
		h.add(end - start)
		if end >= until {
			break
		}
	}
	m["rpc.echo_p50_us"] = h.quantile(0.5) / 1e3
	return nil
}

// probeTranslate times Pool.Translate over the buffer's addresses.
func probeTranslate(m map[string]float64, p *poolTarget, rng *rand.Rand) {
	addrs := make([]lmp.Logical, 4096)
	for i := range addrs {
		addrs[i] = p.buf.Addr() + lmp.Logical(rng.Int63n(p.buf.Size()/blockSize)*blockSize)
	}
	m["core.translate_ns"] = probe(4096, nil, func(i int) { _, _ = p.pool.Translate(addrs[i%len(addrs)]) })
}

// probeCache times the page cache and the write combiner at the pool
// workloads' configuration (16 MiB of 4 KiB pages): a resident read, an
// insert that must evict, an invalidation of a resident page, and a
// buffered 64-byte write.
func probeCache(m map[string]float64) error {
	c, err := cache.New(cache.Config{CapacityBytes: cacheBytes, PageSize: cachePage})
	if err != nil {
		return err
	}
	const resident = cacheBytes / cachePage
	page := make([]byte, cachePage)
	for pg := uint64(0); pg < resident; pg++ {
		c.Put(pg, page)
	}
	dst := make([]byte, blockSize)
	m["cache.read_hit_ns"] = probe(4096, nil, func(i int) { c.ReadAt(uint64(i*37%resident), dst, i&63*blockSize) })
	next := uint64(resident)
	m["cache.put_evict_ns"] = probe(256, nil, func(int) { c.Put(next, page); next++ })
	// Each batch first makes its pages resident again, then drops them.
	m["cache.invalidate_ns"] = probe(256,
		func() {
			for pg := uint64(0); pg < 256; pg++ {
				c.Put(pg, page)
			}
		},
		func(i int) { c.Invalidate(uint64(i % 256)) })

	// A batch stays under the combiner's 128-write flush threshold; the
	// drain between batches is untimed.
	wc := cache.NewWriteCombiner(cachePage, 0, 0)
	m["cache.wc_add_ns"] = probe(120,
		func() { wc.BeginFlush(); wc.EndFlush() },
		func(i int) { wc.Add(0, uint64(i%(1<<20))*blockSize, dst) })
	return nil
}

// probeCoherence times the page directory at the pool's granularity and
// sizing, on the state the workloads keep it in: every page of the
// buffer already granted to the one issuing node.
func probeCoherence(m map[string]float64, sp *spec, rng *rand.Rand) error {
	const node = 4
	dir, err := coherence.NewDirectory(cachePage, 2*5*cacheBytes/cachePage)
	if err != nil {
		return err
	}
	pages := sp.bufBytes / cachePage
	for pg := int64(0); pg < pages; pg++ {
		if _, err := dir.AcquireRead(node, pg*cachePage); err != nil {
			return err
		}
	}
	addrs := make([]int64, 4096)
	for i := range addrs {
		addrs[i] = rng.Int63n(pages) * cachePage
	}
	m["coherence.acquire_read_ns"] = probe(4096, nil, func(i int) { _, _ = dir.AcquireRead(node, addrs[i%len(addrs)]) })
	m["coherence.acquire_write_ns"] = probe(4096, nil, func(i int) { _, _ = dir.AcquireWrite(node, addrs[i%len(addrs)]) })
	return nil
}
