package core

import (
	"maps"
	"sync/atomic"
	"testing"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/cache"
	"github.com/lmp-project/lmp/internal/failure"
)

// The lender's verbs, as countingLender tallies them.
const (
	verbReadAt = iota
	verbWriteAt
	verbAlloc
	verbFree
	verbResize
	verbSharedBytes
	verbFreeBytes
	verbInUse
	numVerbs
)

var verbNames = [numVerbs]string{"ReadAt", "WriteAt", "Alloc", "Free", "Resize", "SharedBytes", "FreeBytes", "InUse"}

// countingLender stands between the pool and one lender and counts, per
// verb, the calls that cross the seam and the bytes they carry: the
// length copied by ReadAt/WriteAt, the extent granted by Alloc or taken
// back by Free.
type countingLender struct {
	lender
	calls, bytes [numVerbs]atomic.Int64
}

func (c *countingLender) count(verb int, n int64) {
	c.calls[verb].Add(1)
	c.bytes[verb].Add(n)
}

func (c *countingLender) ReadAt(p []byte, off int64) error {
	c.count(verbReadAt, int64(len(p)))
	return c.lender.ReadAt(p, off)
}

func (c *countingLender) WriteAt(p []byte, off int64) error {
	c.count(verbWriteAt, int64(len(p)))
	return c.lender.WriteAt(p, off)
}

func (c *countingLender) Alloc(size int64) (int64, error) {
	off, err := c.lender.Alloc(size)
	if err != nil {
		size = 0
	}
	c.count(verbAlloc, size)
	return off, err
}

func (c *countingLender) Free(off int64) (int64, error) {
	n, err := c.lender.Free(off)
	c.count(verbFree, n)
	return n, err
}

func (c *countingLender) Resize(sharedBytes int64) error {
	c.count(verbResize, 0)
	return c.lender.Resize(sharedBytes)
}

func (c *countingLender) SharedBytes() int64 {
	c.count(verbSharedBytes, 0)
	return c.lender.SharedBytes()
}

func (c *countingLender) FreeBytes() int64 {
	c.count(verbFreeBytes, 0)
	return c.lender.FreeBytes()
}

func (c *countingLender) InUse() int64 {
	c.count(verbInUse, 0)
	return c.lender.InUse()
}

// countingPool builds a pool whose every lender is a countingLender.
func countingPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	p, err := newPool(cfg, func(l lender) lender { return &countingLender{lender: l} })
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// lenderCalls is what crossed the seam, by verb, summed over servers.
type lenderCalls map[string]struct{ calls, bytes int64 }

// drainLenderCalls reports the calls every lender of p counted since the
// last drain, and zeroes the counts.
func drainLenderCalls(p *Pool) lenderCalls {
	out := lenderCalls{}
	for _, l := range p.nodes {
		c := l.(*countingLender)
		for v := range c.calls {
			if n := c.calls[v].Swap(0); n != 0 {
				e := out[verbNames[v]]
				e.calls += n
				e.bytes += c.bytes[v].Swap(0)
				out[verbNames[v]] = e
			}
		}
	}
	return out
}

// TestLenderCallsPerOp pins the exact lender calls of one op of each
// shape: which verbs cross the seam, how often, and how many bytes they
// carry. A change that adds a read, a write or an allocation to a path
// shows up here as a diff of counts, not a drift of nanoseconds.
func TestLenderCallsPerOp(t *testing.T) {
	replicate2 := failure.Policy{Scheme: failure.Replicate, Copies: 2}
	ec21 := failure.Policy{Scheme: failure.ErasureCode, K: 2, M: 1}
	buf := make([]byte, 64)
	for _, tc := range []struct {
		name   string
		cached bool
		// setup allocates and warms what the op needs, and returns the op.
		setup func(t *testing.T, p *Pool) func() error
		want  lenderCalls
	}{
		{
			name: "uncached remote read 64B",
			setup: func(t *testing.T, p *Pool) func() error {
				b := mustAllocProtected(t, p, SliceSize, failure.Policy{})
				return func() error { return p.Read(1, b.Addr(), buf) }
			},
			want: lenderCalls{"ReadAt": {1, 64}},
		},
		{
			name: "uncached remote write 64B",
			setup: func(t *testing.T, p *Pool) func() error {
				b := mustAllocProtected(t, p, SliceSize, failure.Policy{})
				return func() error { return p.Write(1, b.Addr(), buf) }
			},
			want: lenderCalls{"WriteAt": {1, 64}},
		},
		{
			name: "replicate-2 write 64B",
			setup: func(t *testing.T, p *Pool) func() error {
				b := mustAllocProtected(t, p, SliceSize, replicate2)
				return func() error { return p.Write(1, b.Addr(), buf) }
			},
			// The primary and its one replica.
			want: lenderCalls{"WriteAt": {2, 128}},
		},
		{
			name: "EC(2,1) write 64B",
			setup: func(t *testing.T, p *Pool) func() error {
				b := mustAllocProtected(t, p, 2*SliceSize, ec21)
				return func() error { return p.Write(1, b.Addr(), buf) }
			},
			// Old bytes and the parity patch read, new bytes and the patched
			// parity written.
			want: lenderCalls{"ReadAt": {2, 128}, "WriteAt": {2, 128}},
		},
		{
			name:   "cache miss with fill",
			cached: true,
			setup: func(t *testing.T, p *Pool) func() error {
				b := mustAllocProtected(t, p, SliceSize, failure.Policy{})
				return func() error { return p.Read(1, b.Addr(), buf) }
			},
			// The whole page comes over, once.
			want: lenderCalls{"ReadAt": {1, cache.DefaultPageSize}},
		},
		{
			name:   "cache hit",
			cached: true,
			setup: func(t *testing.T, p *Pool) func() error {
				b := mustAllocProtected(t, p, SliceSize, failure.Policy{})
				if err := p.Read(1, b.Addr(), buf); err != nil {
					t.Fatal(err)
				}
				return func() error { return p.Read(1, b.Addr(), buf) }
			},
			want: lenderCalls{},
		},
		{
			name: "vectored read over two contiguous slices",
			setup: func(t *testing.T, p *Pool) func() error {
				b := mustAllocProtected(t, p, 2*SliceSize, failure.Policy{})
				lo, err1 := p.Translate(b.Addr())
				hi, err2 := p.Translate(b.Addr() + SliceSize)
				if err1 != nil || err2 != nil || hi.Server != lo.Server || hi.Offset != lo.Offset+SliceSize {
					t.Fatalf("slices at %+v and %+v (%v, %v): want one server, back to back", lo, hi, err1, err2)
				}
				vecs := []Vec{{Addr: b.Addr() + SliceSize - 32, Data: buf}}
				return func() error { return p.ReadV(1, vecs) }
			},
			// Two slice segments, one run, one read.
			want: lenderCalls{"ReadAt": {1, 64}},
		},
		{
			name: "MigrateSlice",
			setup: func(t *testing.T, p *Pool) func() error {
				b := mustAllocProtected(t, p, SliceSize, failure.Policy{})
				return func() error { return p.MigrateSlice(addr.SliceOf(b.Addr()), 2) }
			},
			// The pre-copy in moveChunk pieces, no dirty delta to commit, the
			// destination reserved and the old extent freed.
			want: lenderCalls{
				"ReadAt":  {SliceSize / moveChunk, SliceSize},
				"WriteAt": {SliceSize / moveChunk, SliceSize},
				"Alloc":   {1, SliceSize},
				"Free":    {1, SliceSize},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Placement: alloc.LocalityAware}
			if tc.cached {
				cfg.Cache = CacheConfig{Enabled: true}
			}
			for i := 0; i < 4; i++ {
				cfg.Servers = append(cfg.Servers, ServerConfig{Capacity: 16 * SliceSize, SharedBytes: 16 * SliceSize})
			}
			p := countingPool(t, cfg)
			op := tc.setup(t, p)
			drainLenderCalls(p)
			if err := op(); err != nil {
				t.Fatal(err)
			}
			if got := drainLenderCalls(p); !maps.Equal(got, tc.want) {
				t.Fatalf("lender calls %v, want %v", got, tc.want)
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// mustAllocProtected allocates size bytes issued by server 0.
func mustAllocProtected(t *testing.T, p *Pool, size int64, prot failure.Policy) *Buffer {
	t.Helper()
	b, err := p.AllocProtected(size, 0, prot)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
