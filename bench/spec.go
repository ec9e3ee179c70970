package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
)

// spec is one workload: the deployment it builds, the buffer it works
// on and the op mix the callers issue. README.md says why each exists.
type spec struct {
	name string
	wire bool // TCP path (daemon.PoolView) or in-process lmp.Pool

	lenders   int   // daemons, or pool servers that lend memory
	lendBytes int64 // shared bytes per lender
	stripe    int64 // PoolView stripe (wire only)
	compute   bool  // pool: callers issue from one extra server that lends nothing
	cache     bool  // pool: WithLocalCache(16 MiB, 4 KiB pages)

	bufBytes  int64
	readSize  int
	writeSize int
	readPct   int
	zipfS     float64 // page popularity exponent; 0 means uniform
	// accessSize is what one access looks like to memnode and the rpc
	// layer (a chunk RPC on the wire path), the size the probes use.
	accessSize int
}

const (
	callers    = 2
	cachePage  = 4096
	cacheBytes = 16 << 20
	streamLen  = 1 << 20 // ops per caller, replayed in a loop
	opWrite    = 1 << 31 // op = block index | opWrite
)

var specs = []spec{
	{name: "wire_small", wire: true, lenders: 2, lendBytes: 256 << 20, stripe: 1 << 20,
		bufBytes: 64 << 20, readSize: 64, writeSize: 64, readPct: 80, accessSize: 64},
	{name: "wire_bulk", wire: true, lenders: 2, lendBytes: 256 << 20, stripe: 256 << 10,
		bufBytes: 64 << 20, readSize: 1 << 20, writeSize: 1 << 20, readPct: 50, accessSize: 256 << 10},
	{name: "pool_direct", lenders: 4, lendBytes: 64 << 20,
		bufBytes: 128 << 20, readSize: 64, writeSize: 64, readPct: 80, accessSize: 64},
	{name: "pool_hot", lenders: 4, lendBytes: 64 << 20, compute: true, cache: true,
		bufBytes: 8 << 20, readSize: 64, writeSize: 64, readPct: 95, zipfS: 1.1, accessSize: 64},
	{name: "pool_cold", lenders: 4, lendBytes: 64 << 20, compute: true, cache: true,
		bufBytes: 128 << 20, readSize: 64, writeSize: 256, readPct: 70, accessSize: 64},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// partition returns caller c's write partition as a block range: the
// buffer is split into one contiguous share per caller.
func (sp *spec) partition(c int) (first, count int64) {
	count = sp.bufBytes / blockSize / callers
	return int64(c) * count, count
}

// genStream makes caller c's op stream from the seed. An op is the index
// of its first 64-byte block plus the write flag; offsets are aligned to
// the op's size. Writes always land in the caller's own partition, so
// the caller knows the version every block there must carry. On the wire
// path reads stay in the own partition too: memnode's data path is
// lock-free, and a read racing another caller's write to the same block
// could be torn, which would be the benchmark's race, not a fault of the
// program. The pool path takes a stripe lock per op, so its reads range
// over the whole buffer.
func (sp *spec) genStream(seed int64, c int) []uint32 {
	rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
	first, count := sp.partition(c)
	pages := sp.bufBytes / cachePage
	var zipf *rand.Zipf
	var perm []int
	if sp.zipfS > 0 {
		zipf = rand.NewZipf(rng, sp.zipfS, 1, uint64(pages-1))
		// Shuffle ranks to pages with the seed alone, so both callers
		// agree on which pages are hot and the hot set is not clustered
		// on one lender.
		perm = rand.New(rand.NewSource(seed)).Perm(int(pages))
	}
	const pageBlocks = cachePage / blockSize
	pick := func(lo, n int64, size int) int64 { // block index in [lo, lo+n), aligned to size
		per := int64(size / blockSize)
		if zipf == nil {
			return lo + rng.Int63n(n/per)*per
		}
		page := int64(perm[zipf.Uint64()])
		b := page*pageBlocks + rng.Int63n(pageBlocks/per)*per
		return lo + b%n
	}
	ops := make([]uint32, streamLen)
	for i := range ops {
		switch {
		case rng.Intn(100) >= sp.readPct:
			ops[i] = uint32(pick(first, count, sp.writeSize)) | opWrite
		case sp.wire:
			ops[i] = uint32(pick(first, count, sp.readSize))
		default:
			ops[i] = uint32(pick(0, sp.bufBytes/blockSize, sp.readSize))
		}
	}
	return ops
}

// streamHash fingerprints an op stream (the seed-determinism test).
func streamHash(ops []uint32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, op := range ops {
		binary.LittleEndian.PutUint32(b[:], op)
		h.Write(b[:])
	}
	return h.Sum64()
}
