package daemon

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/lmp-project/lmp/internal/chaos"
	"github.com/lmp-project/lmp/internal/rpc"
	"github.com/lmp-project/lmp/internal/sim"
)

// checkFault holds one call's outcome against the fault records drawn for
// it: nothing retries above the chaos link, so a call that failed with
// rpc.ErrTransient owns exactly one drop or timeout record, a call that
// succeeded owns none, and any other error fails the test.
func checkFault(t *testing.T, events []chaos.Event, err error, what string) {
	t.Helper()
	lost := 0
	for _, ev := range events {
		if ev.Kind == chaos.FaultDrop || ev.Kind == chaos.FaultTimeout {
			lost++
		}
	}
	want := 0
	switch {
	case errors.Is(err, rpc.ErrTransient):
		want = 1
	case err != nil:
		t.Fatalf("%s: %v", what, err)
	}
	if lost != want {
		t.Fatalf("%s: error %v with %d drop/timeout records, want %d", what, err, lost, want)
	}
}

// TestDaemonSurvivesInjectedTransportFaults runs the full live stack —
// typed client → chaos link → multiplexed TCP client → lmpd — with
// seeded drop injection and no retry anywhere. Every ErrTransient must
// match one injected drop, and after every operation the daemon's bytes,
// read past the injector, must be what a shadow model of the successful
// writes says: a dropped write changes nothing.
func TestDaemonSurvivesInjectedTransportFaults(t *testing.T) {
	s, err := NewServer("chaotic", 1<<22, 1<<21)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	raw, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	clean := WrapCaller(raw)

	eng := sim.NewEngine()
	in := chaos.New(eng, chaos.Config{Seed: 21, PDrop: 0.25})
	c := WrapCaller(in.WrapTransport(0, raw))

	const size = 4096
	off, err := clean.Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	shadow := make([]byte, size) // a fresh allocation reads zeros
	transients := 0
	for round := 0; round < 30; round++ {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i*7 + round)
		}
		before := len(in.Trace())
		err := c.Write(off, data)
		checkFault(t, in.Trace()[before:], err, fmt.Sprintf("round %d write", round))
		if err == nil {
			copy(shadow, data)
		} else {
			transients++
		}
		got, err := clean.Read(off, size)
		if err != nil {
			t.Fatalf("round %d: read past the injector: %v", round, err)
		}
		if !bytes.Equal(got, shadow) {
			t.Fatalf("round %d: daemon bytes differ from the shadow model", round)
		}
		before = len(in.Trace())
		got, err = c.Read(off, size)
		checkFault(t, in.Trace()[before:], err, fmt.Sprintf("round %d read", round))
		if err != nil {
			transients++
		} else if !bytes.Equal(got, shadow) {
			t.Fatalf("round %d: data corrupted through chaos transport", round)
		}
	}
	if transients == 0 {
		t.Fatal("chaos layer injected no drops (inert test)")
	}
}

// runPipelinedChaosBurst drives bursts of pipelined calls through seeded
// fault injection — the full live stack with the async path: typed async
// client → chaos link → multiplexed TCP client → lmpd. Faults are drawn
// per logical call at issue time, so drops and dups land between calls
// that share a wire batch. Each outcome is held against the records
// drawn for its call (checkFault), and after each burst the daemon's
// bytes must match the shadow model of the writes that succeeded. It
// returns the injector's rendered fault trace.
func runPipelinedChaosBurst(t *testing.T, seed int64) []string {
	t.Helper()
	s, err := NewServer("pipelined", 1<<22, 1<<21)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	raw, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	clean := WrapCaller(raw)

	eng := sim.NewEngine()
	in := chaos.New(eng, chaos.Config{Seed: seed, PDrop: 0.25, PDup: 0.15})
	c := WrapCaller(in.WrapTransport(0, raw))

	const bursts, width, chunk = 6, 16, 64
	off, err := clean.Alloc(width * chunk)
	if err != nil {
		t.Fatal(err)
	}
	shadow := make([]byte, width*chunk)
	// issue starts one call per chunk, noting where each call's fault
	// records begin in the trace; marks[width] is the end of the last.
	issue := func(call func(i int) *rpc.Future) (fs []*rpc.Future, marks []int) {
		for i := 0; i < width; i++ {
			marks = append(marks, len(in.Trace()))
			fs = append(fs, call(i))
		}
		return fs, append(marks, len(in.Trace()))
	}
	for round := 0; round < bursts; round++ {
		data := func(i int) []byte { return bytes.Repeat([]byte{byte(round*31 + i)}, chunk) }
		// Issue the whole write burst before waiting on any reply: every
		// call is in flight at once, and the flusher packs the survivors
		// of the fault roll into shared writes.
		writes, marks := issue(func(i int) *rpc.Future {
			return c.WriteAsync(nil, off+int64(i*chunk), data(i))
		})
		trace := in.Trace()
		for i, f := range writes {
			_, err := f.Wait()
			checkFault(t, trace[marks[i]:marks[i+1]], err, fmt.Sprintf("round %d write %d", round, i))
			if err == nil {
				copy(shadow[i*chunk:], data(i))
			}
		}
		got, err := clean.Read(off, len(shadow))
		if err != nil {
			t.Fatalf("round %d: read past the injector: %v", round, err)
		}
		if !bytes.Equal(got, shadow) {
			t.Fatalf("round %d: daemon bytes differ from the shadow model", round)
		}
		reads, marks := issue(func(i int) *rpc.Future {
			return c.ReadAsync(nil, off+int64(i*chunk), make([]byte, chunk))
		})
		trace = in.Trace()
		for i, f := range reads {
			got, err := f.Wait()
			checkFault(t, trace[marks[i]:marks[i+1]], err, fmt.Sprintf("round %d read %d", round, i))
			if err == nil && !bytes.Equal(got, shadow[i*chunk:(i+1)*chunk]) {
				t.Fatalf("round %d read %d: corrupted through batched chaos transport", round, i)
			}
		}
	}
	if st := raw.Stats(); st.BatchedCalls < 2 {
		t.Fatalf("bursts produced no batched frames: %+v", st)
	}
	var drops, dups int
	trace := in.Trace()
	out := make([]string, len(trace))
	for i, ev := range trace {
		out[i] = ev.String()
		switch ev.Kind {
		case chaos.FaultDrop:
			drops++
		case chaos.FaultDup:
			dups++
		}
	}
	if drops == 0 || dups == 0 {
		t.Fatalf("seed %d drew drops=%d dups=%d; want both > 0 between batched calls", seed, drops, dups)
	}
	return out
}

// TestDaemonPipelinedChaosDeterministic is the pinned-seed regression
// for the pipelined transport: seed 31337 must draw drops and dups
// between batched in-flight calls, every failure must be one of them, and
// running the same seed twice must replay the identical fault trace.
func TestDaemonPipelinedChaosDeterministic(t *testing.T) {
	const pinnedSeed = 31337
	first := runPipelinedChaosBurst(t, pinnedSeed)
	second := runPipelinedChaosBurst(t, pinnedSeed)
	if len(first) != len(second) {
		t.Fatalf("run-twice divergence: %d events vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("run-twice divergence at event %d:\n  first:  %s\n  second: %s", i, first[i], second[i])
		}
	}
}

// TestDaemonPipelinedCrashFailsInflightBurst checks crash-stop against a
// pipelined burst: a dead verdict drawn mid-burst fails that call (and
// only that call) with rpc.ErrServerDead while its batch-mates complete.
func TestDaemonPipelinedCrashFailsInflightBurst(t *testing.T) {
	s, err := NewServer("crashy", 1<<22, 1<<21)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	raw, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })

	eng := sim.NewEngine()
	in := chaos.New(eng, chaos.Config{Seed: 9})
	link := in.WrapTransport(0, raw)
	c := WrapCaller(link)

	off, err := c.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5A}, 64)
	// Half the burst issued healthy, then the crash verdict lands, then
	// the rest of the burst is issued against the dead server.
	healthy := make([]*rpc.Future, 8)
	for i := range healthy {
		healthy[i] = c.WriteAsync(nil, off+int64(i*64), data)
	}
	in.CrashAt(10, 0)
	eng.RunUntil(10)
	doomed := make([]*rpc.Future, 8)
	for i := range doomed {
		doomed[i] = c.WriteAsync(nil, off+int64((8+i)*64), data)
	}
	for i, f := range healthy {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("pre-crash write %d: %v", i, err)
		}
	}
	for i, f := range doomed {
		if _, err := f.Wait(); !errors.Is(err, rpc.ErrServerDead) {
			t.Fatalf("post-crash write %d: %v, want ErrServerDead", i, err)
		}
	}
	in.RestoreAt(20, 0)
	eng.RunUntil(20)
	if _, err := c.ReadAsync(nil, off, make([]byte, 64)).Wait(); err != nil {
		t.Fatalf("read after restore: %v", err)
	}
}

// TestDaemonCrashStopFailsFast checks the dead-server path end to end: a
// chaos crash makes a call fail with rpc.ErrServerDead without touching
// the network, the trace records it as one FaultDead, and a restore
// brings the connection back.
func TestDaemonCrashStopFailsFast(t *testing.T) {
	s, err := NewServer("doomed", 1<<22, 1<<21)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	raw, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })

	eng := sim.NewEngine()
	in := chaos.New(eng, chaos.Config{Seed: 5})
	c := WrapCaller(in.WrapTransport(0, raw))

	if _, err := c.Info(); err != nil {
		t.Fatalf("healthy info: %v", err)
	}
	in.CrashAt(10, 0)
	eng.RunUntil(10)
	started, before := raw.Stats().Started, len(in.Trace())
	_, err = c.Info()
	if !errors.Is(err, rpc.ErrServerDead) {
		t.Fatalf("call to crashed daemon: %v", err)
	}
	if got := raw.Stats().Started; got != started {
		t.Fatalf("call to a crashed daemon reached the wire (%d calls started, want %d)", got, started)
	}
	if ev := in.Trace()[before:]; len(ev) != 1 || ev[0].Kind != chaos.FaultDead {
		t.Fatalf("trace of the dead call = %v, want one %v record", ev, chaos.FaultDead)
	}
	in.RestoreAt(20, 0)
	eng.RunUntil(20)
	if _, err := c.Info(); err != nil {
		t.Fatalf("info after restore: %v", err)
	}
}
