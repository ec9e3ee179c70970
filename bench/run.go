package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"syscall"
)

// caller is one closed-loop client: it issues its op stream one op at a
// time and remembers the version of every block it has written.
type caller struct {
	id       int
	sp       *spec
	ops      []uint32
	pos      int
	first    int64    // own partition, in blocks
	versions []uint32 // version of each block of the own partition
	writes   uint32   // own write sequence; a write's blocks carry it
	rbuf     []byte
	wbuf     []byte

	attempted, failed uint64
	firstErr          error

	// Per round.
	lat  [2]hist // read, write
	done [2]uint64

	// Traced rounds only.
	tr    *tracer
	local []bool // pool path: whether each 2 MiB slice of the buffer is the caller's own server's
}

const (
	kindRead  = 0
	kindWrite = 1
	// Pool ops take ~100 ns, of which two clock reads would be a third,
	// so the pool path times one op in timedEvery (by op index) and
	// verifies one read in verifyEvery; the wire path does both on every
	// op. ops_per_s counts every op either way.
	timedEvery  = 8
	verifyEvery = 64
)

func newCaller(sp *spec, id int, seed int64) *caller {
	first, count := sp.partition(id)
	return &caller{
		id: id, sp: sp, ops: sp.genStream(seed, id),
		first: first, versions: make([]uint32, count),
		rbuf: make([]byte, sp.readSize), wbuf: make([]byte, sp.writeSize),
	}
}

func (c *caller) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// verify checks the blocks of a read that was issued at off. Integrity
// holds for every block; the exact writer and version are known for
// blocks of the caller's own partition.
func (c *caller) verify(buf []byte, off int64) error {
	for i := 0; i < len(buf); i += blockSize {
		o := off + int64(i)
		writer, version, err := verifyBlock(buf[i:], o)
		if err != nil {
			return err
		}
		own := o/blockSize - c.first
		if own < 0 || own >= int64(len(c.versions)) {
			continue
		}
		want := c.versions[own]
		wantWriter := uint32(c.id)
		if want == 0 {
			wantWriter = prefillWriter
		}
		if version != want || writer != wantWriter {
			return fmt.Errorf("block at offset %d: writer %d version %d, caller %d last wrote version %d",
				o, writer, version, c.id, want)
		}
	}
	return nil
}

// run issues ops until the clock passes until (checked on timed ops).
func (c *caller) run(t target, until int64) {
	sp := c.sp
	var ctx context.Context
	if c.tr != nil {
		ctx = withTracer(c.tr)
	}
	for n := uint64(0); ; n++ {
		op := c.ops[c.pos]
		if c.pos++; c.pos == len(c.ops) {
			c.pos = 0
		}
		off := int64(op&^opWrite) * blockSize
		kind, name := kindRead, "op.read"
		if op&opWrite != 0 {
			kind, name = kindWrite, "op.write"
			c.writes++
			own := off/blockSize - c.first
			for i := int64(0); i < int64(sp.writeSize/blockSize); i++ {
				c.versions[own+i] = c.writes
			}
			encodeBlocks(c.wbuf, off, uint32(c.id), c.writes)
		}
		timed := sp.wire || n%timedEvery == 0
		var start, end int64
		if timed {
			if c.tr != nil {
				c.tr.begin()
			}
			start = now()
		}
		var err error
		if kind == kindWrite {
			err = t.write(ctx, c.id, c.wbuf, off)
		} else {
			err = t.read(ctx, c.id, c.rbuf, off)
		}
		if timed {
			end = now()
			c.lat[kind].add(end - start)
			if c.tr != nil {
				local := c.local != nil && c.local[off>>sliceShift]
				c.tr.end(name, start, end, kind == kindRead, local)
			}
		}
		c.attempted++
		c.done[kind]++
		if err != nil {
			c.fail(err)
		} else if kind == kindRead && (sp.wire || n%verifyEvery == 0) {
			if err := c.verify(c.rbuf, off); err != nil {
				c.fail(err)
			}
		}
		if timed && end >= until {
			return
		}
	}
}

const sliceShift = 21 // lmp.SliceSize is 2 MiB

// rounds is how many back-to-back stretches the measured seconds are cut
// into. Every end-to-end value is the median of the rounds' values, so
// one round that a collection or a neighbour on the host disturbed does
// not move the result.
const rounds = 5

// round is what one measured stretch of the run produced.
type round struct {
	seconds float64
	ops     [2]uint64
	lat     [2]hist
	cpuUS   float64
}

func (r *round) total() uint64 { return r.ops[kindRead] + r.ops[kindWrite] }

func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runRound drives every caller for ns nanoseconds and collects the
// round: ops by type, merged latency histograms, CPU the process spent.
func runRound(t target, cs []*caller, ns int64) *round {
	for _, c := range cs {
		c.lat = [2]hist{}
		c.done = [2]uint64{}
	}
	r := &round{}
	cpu0 := cpuMicros()
	start := now()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(t, start+ns)
		}()
	}
	wg.Wait()
	r.seconds = float64(now()-start) / 1e9
	r.cpuUS = cpuMicros() - cpu0
	for _, c := range cs {
		for k := range r.lat {
			r.lat[k].merge(&c.lat[k])
			r.ops[k] += c.done[k]
		}
	}
	return r
}

// measure runs n back-to-back rounds of ns nanoseconds each and reads the
// machine reference (ref.go) before, between and after them; refNS is the
// median reading, 0 without a reference.
func measure(t target, cs []*caller, n int, ns int64, ref *machineRef) (rs []*round, refNS float64) {
	var refs []float64
	read := func() {
		if ref != nil {
			refs = append(refs, ref.sample())
		}
	}
	read()
	for i := 0; i < n; i++ {
		rs = append(rs, runRound(t, cs, ns))
		read()
	}
	return rs, median(refs)
}

// merged adds the rounds up into one.
func merged(rs []*round) *round {
	out := &round{}
	for _, r := range rs {
		out.seconds += r.seconds
		out.cpuUS += r.cpuUS
		for k := range r.lat {
			out.ops[k] += r.ops[k]
			out.lat[k].merge(&r.lat[k])
		}
	}
	return out
}

// timedNames are the metrics a round has a value for; printedNames is
// everything the untraced run prints, in order. e2eUnits names the ones
// that are BENCHMARK.json's end_to_end list and go into the result line;
// the others are per-layer metrics (e2e.<name>, from the traced run).
var (
	timedNames   = []string{"ops_per_s", "read_p50_us", "read_p99_us", "write_p50_us", "write_p99_us", "cpu_us_per_op"}
	printedNames = append(append([]string{"setup_s"}, timedNames...), "peak_rss_mb")
	printedUnits = map[string]string{
		"setup_s": "s", "ops_per_s": "1/s", "read_p50_us": "us", "read_p99_us": "us",
		"write_p50_us": "us", "write_p99_us": "us", "cpu_us_per_op": "us", "peak_rss_mb": "MiB",
	}
	e2eUnits = map[string]string{"setup_s": "s", "peak_rss_mb": "MiB"}
)

// values returns the round's own timed metrics.
func (r *round) values() map[string]float64 {
	return map[string]float64{
		"ops_per_s":     float64(r.total()) / r.seconds,
		"read_p50_us":   r.lat[kindRead].quantile(0.50) / 1e3,
		"read_p99_us":   r.lat[kindRead].quantile(0.99) / 1e3,
		"write_p50_us":  r.lat[kindWrite].quantile(0.50) / 1e3,
		"write_p99_us":  r.lat[kindWrite].quantile(0.99) / 1e3,
		"cpu_us_per_op": r.cpuUS / float64(r.total()),
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// spread is (max − min) / median of the values.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	return (hi - lo) / m
}

// summarize reduces the rounds to the reported values: per timed metric
// the median of the rounds' values, and how far the rounds spread.
func summarize(rs []*round) (med, spr map[string]float64) {
	per := map[string][]float64{}
	for _, r := range rs {
		for k, v := range r.values() {
			per[k] = append(per[k], v)
		}
	}
	med, spr = map[string]float64{}, map[string]float64{}
	for k, v := range per {
		med[k], spr[k] = median(v), spread(v)
	}
	return med, spr
}
