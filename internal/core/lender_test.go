package core

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/cache"
	"github.com/lmp-project/lmp/internal/failure"
	"github.com/lmp-project/lmp/internal/rpc"
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

// faultyLender stands between the pool and one lender and plays a slow
// or failing one. Every call waits delay of wall time before it crosses
// the seam: a remote lender's round trip. A data call (ReadAt, WriteAt,
// Alloc, Free, Resize) can fail: the next call of the verb failNext
// names (verb+1; 0 arms none) fails with errLenderFault, and once the
// lender has crashed — crashNext arms its next data call of any verb to
// do so — every data call fails with errLenderCrashed. A failed call
// touches nothing behind the seam.
type faultyLender struct {
	lender
	delay     time.Duration
	failNext  atomic.Int32
	crashNext atomic.Bool
	crashed   atomic.Bool
}

var (
	errLenderFault   = fmt.Errorf("injected lender fault: %w", rpc.ErrTransient)
	errLenderCrashed = fmt.Errorf("lender crashed at the seam: %w", ErrServerDead)
)

// enter is the seam: the round trip, then the verdict on a data call.
func (f *faultyLender) enter(verb int) error {
	// Spin, not sleep: a sleep this short lasts as long as the timer's
	// granularity, a millisecond on some kernels.
	for end := time.Now().Add(f.delay); f.delay > 0 && time.Now().Before(end); {
	}
	if verb > verbResize {
		return nil
	}
	if f.crashed.Load() || f.crashNext.CompareAndSwap(true, false) {
		f.crashed.Store(true)
		return errLenderCrashed
	}
	if f.failNext.CompareAndSwap(int32(verb)+1, 0) {
		return errLenderFault
	}
	return nil
}

func (f *faultyLender) ReadAt(p []byte, off int64) error {
	if err := f.enter(verbReadAt); err != nil {
		return err
	}
	return f.lender.ReadAt(p, off)
}

func (f *faultyLender) WriteAt(p []byte, off int64) error {
	if err := f.enter(verbWriteAt); err != nil {
		return err
	}
	return f.lender.WriteAt(p, off)
}

func (f *faultyLender) Alloc(size int64) (int64, error) {
	if err := f.enter(verbAlloc); err != nil {
		return 0, err
	}
	return f.lender.Alloc(size)
}

func (f *faultyLender) Free(off int64) (int64, error) {
	if err := f.enter(verbFree); err != nil {
		return 0, err
	}
	return f.lender.Free(off)
}

func (f *faultyLender) Resize(sharedBytes int64) error {
	if err := f.enter(verbResize); err != nil {
		return err
	}
	return f.lender.Resize(sharedBytes)
}

func (f *faultyLender) SharedBytes() int64 {
	_ = f.enter(verbSharedBytes)
	return f.lender.SharedBytes()
}

func (f *faultyLender) FreeBytes() int64 {
	_ = f.enter(verbFreeBytes)
	return f.lender.FreeBytes()
}

func (f *faultyLender) InUse() int64 {
	_ = f.enter(verbInUse)
	return f.lender.InUse()
}

// faultyPool builds a pool from cfg whose every lender is a faultyLender
// with the given round trip.
func faultyPool(cfg Config, delay time.Duration) (*Pool, error) {
	return newPool(cfg, func(l lender) lender { return &faultyLender{lender: l, delay: delay} })
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
func mustAllocProtected(t testing.TB, p *Pool, size int64, prot failure.Policy) *Buffer {
	t.Helper()
	b, err := p.AllocProtected(size, 0, prot)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// BenchmarkSlowLenderReads reports 64 B read latency over lenders whose
// every call is a slowLenderDelay round trip, while a background loop
// works on the read slice's stripe. "move" migrates the read slice back
// and forth; precopy_p99_us counts only the reads that start while a
// move pre-copies (from MigrateSlice's call to its FabricDelay hook).
// "teardown" allocates and releases a one-slice buffer that shares the
// read slice's stripe (a 63-slice filler puts it stripeCount slices
// on), so each release frees its extent, a round trip, under that
// stripe's write lock. DESIGN.md "The lender seam" records the readings:
//
//	go test -run '^$' -bench SlowLenderReads -benchtime 20000x ./internal/core/
func BenchmarkSlowLenderReads(b *testing.B) {
	for _, row := range []struct {
		name   string
		slices int64 // per server
		work   func(p *Pool, s uint64, round int) error
	}{
		{"move", 16, func(p *Pool, s uint64, round int) error {
			return p.MigrateSlice(s, addr.ServerID(1+round%2))
		}},
		{"teardown", 20, func(p *Pool, s uint64, _ int) error {
			other, err := p.Alloc(SliceSize, 2)
			if err != nil {
				return err
			}
			if o := addr.SliceOf(other.Addr()); o == s || p.stripeFor(o) != p.stripeFor(s) {
				return fmt.Errorf("slice %d does not share slice %d's stripe", o, s)
			}
			return other.Release()
		}},
	} {
		b.Run(row.name, func(b *testing.B) {
			var mu sync.Mutex
			var precopy [][2]time.Time // [start, end) of each move's pre-copy
			cfg := Config{
				Placement: alloc.LocalityAware,
				Repair: RepairConfig{FabricDelay: func() {
					mu.Lock()
					precopy[len(precopy)-1][1] = time.Now()
					mu.Unlock()
				}},
			}
			for i := 0; i < 4; i++ {
				cfg.Servers = append(cfg.Servers, ServerConfig{Capacity: row.slices * SliceSize, SharedBytes: row.slices * SliceSize})
			}
			p, err := faultyPool(cfg, slowLenderDelay)
			if err != nil {
				b.Fatal(err)
			}
			buf := mustAllocProtected(b, p, SliceSize, failure.Policy{})
			if row.name == "teardown" {
				mustAllocProtected(b, p, int64(len(p.stripes)-1)*SliceSize, failure.Policy{})
			}
			stop, done := make(chan struct{}), make(chan error, 1)
			go func() {
				for round := 0; ; round++ {
					select {
					case <-stop:
						done <- nil
						return
					default:
					}
					mu.Lock()
					precopy = append(precopy, [2]time.Time{time.Now()})
					mu.Unlock()
					if err := row.work(p, addr.SliceOf(buf.Addr()), round); err != nil {
						done <- err
						return
					}
				}
			}()
			dst := make([]byte, 64)
			starts := make([]time.Time, b.N)
			lat := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := range lat {
				starts[i] = time.Now()
				if err := p.Read(3, buf.Addr(), dst); err != nil {
					b.Fatal(err)
				}
				lat[i] = time.Since(starts[i])
			}
			b.StopTimer()
			close(stop)
			if err := <-done; err != nil {
				b.Fatal(err)
			}
			var during []time.Duration
			for i, at := range starts {
				if k, _ := slices.BinarySearchFunc(precopy, at, func(w [2]time.Time, t time.Time) int { return w[0].Compare(t) }); k > 0 && at.Before(precopy[k-1][1]) {
					during = append(during, lat[i])
				}
			}
			p99 := func(d []time.Duration) float64 {
				slices.Sort(d)
				return float64(d[len(d)*99/100]) / 1e3
			}
			b.ReportMetric(p99(lat), "p99_us")
			b.ReportMetric(float64(lat[len(lat)/2])/1e3, "p50_us")
			if len(during) > 0 {
				b.ReportMetric(p99(during), "precopy_p99_us")
			}
		})
	}
}
