package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/lmp-project/lmp/internal/rpc"
	"github.com/lmp-project/lmp/internal/sim"
)

// frameHeader is the length of an rpc frame's header (kind, method, id,
// length): an echo call of p bytes is a frame of frameHeader+p bytes
// each way.
const frameHeader = 14

// echoServer starts an rpc.Server whose method 1 echoes its payload and
// counts the calls it served.
func echoServer(t *testing.T) (*rpc.Server, string, *atomic.Int64) {
	t.Helper()
	var served atomic.Int64
	s := rpc.NewServer()
	s.Handle(1, func(p []byte) ([]byte, error) {
		served.Add(1)
		return p, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr, &served
}

// session issues echo calls through a proxy one at a time, from one
// goroutine. After a failed call it closes the client, waits for the
// proxy to wind the connection down and dials afresh for the next call.
type session struct {
	t *testing.T
	p *Proxy
	c *rpc.Client
}

func (s *session) call(payload []byte) error {
	s.t.Helper()
	if s.c == nil {
		c, err := rpc.Dial(s.p.Addr())
		if err != nil {
			s.t.Fatal(err)
		}
		s.c = c
	}
	got, err := s.c.Call(1, payload)
	if err == nil && string(got) != string(payload) {
		s.t.Fatalf("echo of %q came back %q", payload, got)
	}
	if err != nil {
		s.close()
	}
	return err
}

func (s *session) close() {
	if s.c != nil {
		s.c.Close()
		s.c = nil
	}
	s.p.Wait()
}

// runSeed drives 40 echo calls through a proxy on the sim clock, arming a
// cut before one call in three and crashing the server from 5 ms to
// 9 ms. It returns the fault trace and every call's outcome.
func runSeed(t *testing.T, seed int64) string {
	t.Helper()
	_, addr, _ := echoServer(t)
	eng := sim.NewEngine()
	in := New(eng, Config{Seed: seed})
	p, err := in.Proxy(1, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := &session{t: t, p: p}
	defer s.close()
	in.CrashAt(5*sim.Time(sim.Millisecond), 1)
	in.RestoreAt(9*sim.Time(sim.Millisecond), 1)
	ops := rand.New(rand.NewSource(seed))
	var outcomes strings.Builder
	for i := 0; i < 40; i++ {
		at := sim.Time(sim.Duration(i) * 300 * sim.Microsecond)
		eng.At(at, func() {
			payload := []byte(fmt.Sprintf("call %d", i))
			if ops.Intn(3) == 0 {
				p.Arm(FaultCut, Direction(ops.Intn(2)), frameHeader+len(payload))
			}
			err := s.call(payload)
			if err != nil && !errors.Is(err, rpc.ErrTransient) {
				t.Errorf("call %d: %v, want success or rpc.ErrTransient", i, err)
			}
			fmt.Fprintf(&outcomes, "call %d ok=%t\n", i, err == nil)
		})
	}
	eng.Run()
	return in.TraceString() + outcomes.String()
}

func TestSameSeedSameTrace(t *testing.T) {
	for _, seed := range []int64{1, 7, 424242} {
		a := runSeed(t, seed)
		b := runSeed(t, seed)
		if a != b {
			t.Fatalf("seed %d: runs diverge:\n--- run 1\n%s--- run 2\n%s", seed, a, b)
		}
		if !strings.Contains(a, " cut ") || !strings.Contains(a, "ok=false") {
			t.Fatalf("seed %d: no cut failed a call:\n%s", seed, a)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	if runSeed(t, 1) == runSeed(t, 2) {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestCrashWindowSemantics(t *testing.T) {
	_, addr, served := echoServer(t)
	eng := sim.NewEngine()
	in := New(eng, Config{Seed: 3})
	p, err := in.Proxy(0, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := &session{t: t, p: p}
	defer s.close()

	var crashes int
	in.OnCrash = func(int) { crashes++ }
	in.CrashAt(10, 0)
	in.RestoreAt(20, 0)

	var errs [3]error
	eng.At(5, func() { errs[0] = s.call([]byte("before")) })
	eng.At(15, func() { errs[1] = s.call([]byte("during")) })
	eng.At(25, func() { errs[2] = s.call([]byte("after")) })
	eng.Run()

	if tr := in.TraceString(); crashes != 1 || strings.Count(tr, " crash ") != 1 || strings.Count(tr, " restore ") != 1 {
		t.Fatalf("OnCrash ran %d times, trace:\n%s", crashes, tr)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("calls outside the crash window: %v, %v", errs[0], errs[2])
	}
	if !errors.Is(errs[1], rpc.ErrTransient) {
		t.Fatalf("call during crash window: %v, want rpc.ErrTransient", errs[1])
	}
	if n := served.Load(); n != 2 {
		t.Fatalf("server saw %d calls, want 2 (before crash, after restore)", n)
	}
	if crashed(in, 0) {
		t.Fatal("server still crashed after restore")
	}
}

func TestCancelledRestoreStaysDown(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, Config{Seed: 3})
	in.CrashAt(10, 0)
	restore := in.RestoreAt(20, 0)
	// A second crash inside the window cancels the pending restore — the
	// windowed-fault shape sim.Schedule exists for.
	eng.At(15, func() { restore.Cancel() })
	eng.Run()
	if !crashed(in, 0) {
		t.Fatal("cancelled restore still revived the server")
	}
	if tr := in.TraceString(); strings.Contains(tr, "restore") {
		t.Fatalf("trace records a restore that was cancelled:\n%s", tr)
	}
}

func crashed(in *Injector, server int) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed[server]
}

// TestTransientErrorsMatchInjectedFaults pins a cut's contract with no
// retry above it: a call fails, with rpc.ErrTransient, exactly when a cut
// was armed inside its frames; a cut of the request means the server
// never served it, and a cut of the reply means it did.
func TestTransientErrorsMatchInjectedFaults(t *testing.T) {
	_, addr, served := echoServer(t)
	in := New(sim.NewEngine(), Config{Seed: 5})
	p, err := in.Proxy(0, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	s := &session{t: t, p: p}
	defer s.close()
	ops := rand.New(rand.NewSource(5))
	var cuts [2]int
	for i := 0; i < 200; i++ {
		payload := []byte(fmt.Sprintf("payload %d", i))
		armed := ops.Intn(3) == 0
		dir := Direction(ops.Intn(2))
		if armed {
			p.Arm(FaultCut, dir, frameHeader+len(payload))
			cuts[dir]++
		}
		before := served.Load()
		err := s.call(payload)
		switch {
		case !armed && err != nil:
			t.Fatalf("call %d failed with no cut armed: %v", i, err)
		case armed && !errors.Is(err, rpc.ErrTransient):
			t.Fatalf("call %d under a %s cut: %v, want rpc.ErrTransient", i, directionNames[dir], err)
		}
		want := before
		if !armed || dir == ToClient {
			want++
		}
		if got := served.Load(); got != want {
			t.Fatalf("call %d (cut armed %t, %s): server served %d calls, want %d",
				i, armed, directionNames[dir], got, want)
		}
	}
	if cuts[ToServer] == 0 || cuts[ToClient] == 0 {
		t.Fatalf("seed drew cuts %v; want both directions", cuts)
	}
}

// TestStallHoldsUntilCrash: a stall holds the request after k bytes, so
// the server never serves it, and the crash that resets the connection
// fails the call with rpc.ErrTransient.
func TestStallHoldsUntilCrash(t *testing.T) {
	_, addr, served := echoServer(t)
	eng := sim.NewEngine()
	in := New(eng, Config{Seed: 8})
	p, err := in.Proxy(0, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := rpc.Dial(p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(1, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	payload := []byte("held")
	p.Arm(FaultStall, ToServer, frameHeader+len(payload))
	f := c.CallAsyncCtx(nil, 1, payload)
	in.CrashAt(10, 0)
	eng.Run()
	if _, err := f.Wait(); !errors.Is(err, rpc.ErrTransient) {
		t.Fatalf("stalled call after the crash: %v, want rpc.ErrTransient", err)
	}
	if n := served.Load(); n != 1 {
		t.Fatalf("server served %d calls, want 1: the stalled request reached it", n)
	}
}

// poll yields the processor until cond holds, for a bounded number of
// rounds, and reports whether it came to hold.
func poll(cond func() bool) bool {
	for round := 0; round < 1e7; round++ {
		if cond() {
			return true
		}
		runtime.Gosched()
	}
	return cond()
}

// taken reports whether the fault armed in direction dir of p has fired.
func taken(p *Proxy, dir Direction) bool {
	p.in.mu.Lock()
	defer p.in.mu.Unlock()
	return p.armed[dir] == nil
}

// sockets lists both sockets of every connection p holds open.
func sockets(p *Proxy) []net.Conn {
	p.in.mu.Lock()
	defer p.in.mu.Unlock()
	var out []net.Conn
	for l := range p.links {
		out = append(out, l.client, l.upstream)
	}
	return out
}

// TestProxyLeavesNothingRunning proxies an echo server through a crash,
// a restore and a stall left holding, then closes everything: every
// socket the proxy accepted or dialed is closed, and the goroutine count
// returns to where it started.
func TestProxyLeavesNothingRunning(t *testing.T) {
	start := runtime.NumGoroutine()
	srv, addr, _ := echoServer(t)
	eng := sim.NewEngine()
	in := New(eng, Config{Seed: 4})
	p, err := in.Proxy(0, addr)
	if err != nil {
		t.Fatal(err)
	}

	var socks []net.Conn
	dial := func() *rpc.Client {
		c, err := rpc.Dial(p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Call(1, []byte("ping")); err != nil {
			t.Fatal(err)
		}
		socks = append(socks, sockets(p)...)
		return c
	}
	c := dial()
	in.CrashAt(10, 0)
	in.RestoreAt(20, 0)
	eng.RunUntil(10)
	if _, err := c.Call(1, []byte("down")); !errors.Is(err, rpc.ErrTransient) {
		t.Fatalf("call across the crash: %v, want rpc.ErrTransient", err)
	}
	c.Close()
	p.Wait()
	eng.Run()
	c = dial()
	p.Arm(FaultStall, ToServer, 1)
	f := c.CallAsyncCtx(nil, 1, []byte("held"))
	if !poll(func() bool { return taken(p, ToServer) }) {
		t.Fatal("the stall never took the request's first byte")
	}
	p.Close()
	if _, err := f.Wait(); !errors.Is(err, rpc.ErrTransient) {
		t.Fatalf("stalled call after Close: %v, want rpc.ErrTransient", err)
	}
	c.Close()
	srv.Close()

	if len(socks) != 4 {
		t.Fatalf("saw %d proxied sockets, want 4 (two connections)", len(socks))
	}
	for i, sk := range socks {
		if _, err := sk.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
			t.Errorf("socket %d still open after Close: read %v", i, err)
		}
	}
	if !poll(func() bool { return runtime.NumGoroutine() <= start }) {
		n := runtime.NumGoroutine()
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines left running, %d at the start:\n%s", n, start, buf[:runtime.Stack(buf, true)])
	}
}

func TestShrinkFindsMinimalSubset(t *testing.T) {
	// Failure requires ops 3 AND 17 together.
	fails := func(keep []int) bool {
		has3, has17 := false, false
		for _, i := range keep {
			has3 = has3 || i == 3
			has17 = has17 || i == 17
		}
		return has3 && has17
	}
	got := Shrink(40, fails)
	sort.Ints(got)
	if len(got) != 2 || got[0] != 3 || got[1] != 17 {
		t.Fatalf("shrunk to %v, want [3 17]", got)
	}
	if Shrink(10, func([]int) bool { return false }) != nil {
		t.Fatal("non-failing sequence shrunk to non-nil")
	}
}

func TestReplayCommand(t *testing.T) {
	cmd := ReplayCommand(424242, "TestChaosPool", "./internal/core/")
	for _, want := range []string{"CHAOS_SEED=424242", "TestChaosPool", "./internal/core/"} {
		if !strings.Contains(cmd, want) {
			t.Fatalf("replay command %q missing %q", cmd, want)
		}
	}
}
