package daemon

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/lmp-project/lmp/internal/chaos"
	"github.com/lmp-project/lmp/internal/rpc"
	"github.com/lmp-project/lmp/internal/sim"
)

// frameHeader is the length of an rpc frame's header (kind, method, id,
// payload length). A write's request is a header, the 8-byte offset
// (writeHead) and the bytes; a read's is a header and the 12-byte range
// (readHead). A write's reply is a bare header; a read's carries the
// bytes read.
const frameHeader = 14

// chaosRig is one daemon behind a chaos proxy, on real loopback sockets.
// clean reaches the daemon directly, to read its bytes past the faults;
// c is the current connection through the proxy, re-dialed after each
// fault.
type chaosRig struct {
	t       *testing.T
	s       *Server
	clean   *Client
	eng     *sim.Engine
	in      *chaos.Injector
	p       *chaos.Proxy
	raw     *rpc.Client
	c       *Client
	batched uint64 // calls sent in shared writes, over every connection
}

func newChaosRig(t *testing.T, name string, seed int64) *chaosRig {
	t.Helper()
	s, clean := startDaemon(t, name, 1<<22, 1<<21)
	eng := sim.NewEngine()
	in := chaos.New(eng, chaos.Config{Seed: seed})
	p, err := in.Proxy(0, s.addr)
	if err != nil {
		t.Fatal(err)
	}
	r := &chaosRig{t: t, s: s, clean: clean, eng: eng, in: in, p: p}
	t.Cleanup(func() {
		r.hangUp()
		p.Close()
	})
	r.dial()
	return r
}

func (r *chaosRig) dial() {
	raw, err := rpc.Dial(r.p.Addr())
	if err != nil {
		r.t.Fatal(err)
	}
	r.raw, r.c = raw, WrapCaller(raw)
}

// hangUp checks that every call the connection through the proxy started
// resolved exactly once, closes it, and waits until the daemon has read
// all the proxy forwarded and closed its end.
func (r *chaosRig) hangUp() {
	if r.raw == nil {
		return
	}
	st := r.raw.Stats()
	if st.Pending != 0 || st.Started != st.Completed {
		r.t.Fatalf("calls left unresolved: %+v", st)
	}
	r.batched += st.BatchedCalls
	r.raw.Close()
	r.raw, r.c = nil, nil
	r.p.Wait()
}

// redial replaces a connection a fault took down: every later call on it
// fails fast with the loss, so the client dials through the proxy again.
func (r *chaosRig) redial() {
	if _, err := r.c.Info(); !errors.Is(err, rpc.ErrTransient) {
		r.t.Fatalf("call on a lost connection: %v, want rpc.ErrTransient", err)
	}
	r.hangUp()
	r.dial()
}

// cutClass names the part of a call's frames a cut at byte k of direction
// dir lands in; head is the request's head length.
func cutClass(dir chaos.Direction, k, head int) string {
	switch {
	case dir == chaos.ToClient && k < frameHeader:
		return "reply header"
	case dir == chaos.ToClient:
		return "reply body"
	case k < frameHeader:
		return "request header"
	case k < frameHeader+head:
		return "request head"
	default:
		return "request body"
	}
}

// clamp bounds v to [0, hi].
func clamp(v, hi int) int { return max(0, min(v, hi)) }

// TestDaemonSurvivesInjectedTransportFaults runs the live stack — typed
// client → rpc client → chaos proxy → lmpd — one call at a time, with a
// seeded cut armed inside about half the calls' request or reply frames.
// Nothing retries: a call fails, with rpc.ErrTransient, exactly when its
// cut fires, and the client re-dials. After every call the daemon's
// bytes, read past the proxy, are what a shadow model says: a write that
// succeeded landed whole, a write whose reply was cut landed whole too,
// and a write whose request was cut landed exactly the bytes of its body
// that reached the daemon — nothing, or a prefix. Over the seeds, cuts
// must land in every part of the frames.
func TestDaemonSurvivesInjectedTransportFaults(t *testing.T) {
	coverage := map[string]int{}
	for seed := int64(1); seed <= 4; seed++ {
		runCallAtATime(t, seed, coverage)
	}
	t.Logf("cuts: %v", coverage)
	for _, class := range []string{"request header", "request head", "request body", "reply header", "reply body"} {
		if coverage[class] == 0 {
			t.Errorf("no cut landed in a %s over the seeds (inert test)", class)
		}
	}
}

func runCallAtATime(t *testing.T, seed int64, coverage map[string]int) {
	r := newChaosRig(t, "chaotic", seed)
	const size = 4096
	off, err := grant(r.clean, size)
	if err != nil {
		t.Fatal(err)
	}
	shadow := make([]byte, size) // a fresh allocation reads zeros
	ops := rand.New(rand.NewSource(seed))
	for i := 0; i < 40; i++ {
		n := 1 + ops.Intn(128)
		at := ops.Intn(size - n + 1)
		write := ops.Intn(2) == 0
		head, request, reply := readHead, frameHeader+readHead, frameHeader+n
		if write {
			head, request, reply = writeHead, frameHeader+writeHead+n, frameHeader
		}
		cut, dir, k := ops.Intn(2) == 0, chaos.Direction(ops.Intn(2)), 0
		if cut {
			within := request
			if dir == chaos.ToClient {
				within = reply
			}
			k = r.p.Arm(chaos.FaultCut, dir, within)
			coverage[cutClass(dir, k, head)]++
		}
		data := make([]byte, n)
		for j := range data {
			data[j] = byte(ops.Intn(256))
		}
		var got []byte
		if write {
			err = r.c.Write(off+int64(at), data)
		} else {
			got, err = r.c.Read(off+int64(at), n)
		}
		switch {
		case cut && !errors.Is(err, rpc.ErrTransient):
			t.Fatalf("seed %d call %d: %v under a cut, want rpc.ErrTransient", seed, i, err)
		case !cut && err != nil:
			t.Fatalf("seed %d call %d: %v with no cut armed", seed, i, err)
		case !write && err == nil && !bytes.Equal(got, shadow[at:at+n]):
			t.Fatalf("seed %d call %d: read through the proxy differs from the shadow model", seed, i)
		}
		if cut {
			r.redial()
		}
		if write {
			landed := n
			if cut && dir == chaos.ToServer {
				landed = clamp(k-frameHeader-writeHead, n)
			}
			copy(shadow[at:], data[:landed])
		}
		held, err := r.clean.Read(off, size)
		if err != nil {
			t.Fatalf("seed %d call %d: read past the proxy: %v", seed, i, err)
		}
		if !bytes.Equal(held, shadow) {
			t.Fatalf("seed %d call %d (write %t, cut %t %v k=%d): daemon bytes differ from the shadow model",
				seed, i, write, cut, dir, k)
		}
	}
}

// runPipelinedChaosBurst drives bursts of pipelined calls through the
// proxy: 16 writes issued before any is waited on, then 16 reads. A
// seeded cut lands somewhere in two write bursts of three, in the stream
// of requests, and in one read burst of two, in the stream of replies.
// One goroutine issues the calls, so the stream reaches the daemon in
// issue order, and it holds exactly the first k bytes of it after a cut:
// writes before byte k landed whole, the one it splits landed a prefix,
// the rest nothing. Every call resolves once; one that succeeded was
// carried whole and one that failed has rpc.ErrTransient. It returns the
// fault trace and the daemon's bytes after each write burst.
func runPipelinedChaosBurst(t *testing.T, seed int64) (string, [][]byte) {
	t.Helper()
	r := newChaosRig(t, "pipelined", seed)
	const bursts, width, chunk = 6, 16, 64
	const writeFrame, readReply = frameHeader + writeHead + chunk, frameHeader + chunk
	off, err := grant(r.clean, width*chunk)
	if err != nil {
		t.Fatal(err)
	}
	shadow := make([]byte, width*chunk)
	ops := rand.New(rand.NewSource(seed))
	var after [][]byte
	var writeCuts, readCuts, writesOK int
	for round := 0; round < bursts; round++ {
		data := func(i int) []byte { return bytes.Repeat([]byte{byte(round*31 + i + 1)}, chunk) }
		k := -1
		if ops.Intn(3) != 0 {
			k = r.p.Arm(chaos.FaultCut, chaos.ToServer, width*writeFrame)
			writeCuts++
		}
		writes := make([]*rpc.Future, width)
		for i := range writes {
			writes[i] = r.c.WriteAsync(nil, off+int64(i*chunk), data(i))
		}
		for i, f := range writes {
			_, err := f.Wait()
			switch {
			case err == nil && k >= 0 && k < (i+1)*writeFrame:
				t.Fatalf("round %d write %d succeeded, but the cut at %d fell inside its request", round, i, k)
			case err == nil:
				writesOK++
			case !errors.Is(err, rpc.ErrTransient) || k < 0:
				t.Fatalf("round %d write %d: %v (cut at %d)", round, i, err, k)
			}
		}
		if k >= 0 {
			r.redial()
		}
		for i := 0; i < width; i++ {
			landed := chunk
			if k >= 0 {
				landed = clamp(k-i*writeFrame-frameHeader-writeHead, chunk)
			}
			copy(shadow[i*chunk:], data(i)[:landed])
		}
		held, err := r.clean.Read(off, len(shadow))
		if err != nil {
			t.Fatalf("round %d: read past the proxy: %v", round, err)
		}
		if !bytes.Equal(held, shadow) {
			t.Fatalf("round %d (cut at %d): daemon bytes differ from the first k bytes of the stream", round, k)
		}
		after = append(after, held)

		k = -1
		if ops.Intn(2) == 0 {
			k = r.p.Arm(chaos.FaultCut, chaos.ToClient, width*readReply)
			readCuts++
		}
		reads := make([]*rpc.Future, width)
		for i := range reads {
			reads[i] = r.c.ReadAsync(nil, off+int64(i*chunk), make([]byte, chunk))
		}
		for i, f := range reads {
			got, err := f.Wait()
			switch {
			case err == nil && k >= 0 && k < (i+1)*readReply:
				t.Fatalf("round %d read %d succeeded, but the cut at %d fell inside its reply", round, i, k)
			case err == nil && !bytes.Equal(got, shadow[i*chunk:(i+1)*chunk]):
				t.Fatalf("round %d read %d: corrupted through the proxy", round, i)
			case err != nil && (!errors.Is(err, rpc.ErrTransient) || k < 0):
				t.Fatalf("round %d read %d: %v (cut at %d)", round, i, err, k)
			}
		}
		if k >= 0 {
			r.redial()
		}
	}
	r.hangUp()
	if r.batched < 2 {
		t.Fatalf("bursts produced no batched frames (%d calls in shared writes)", r.batched)
	}
	if writeCuts == 0 || readCuts == 0 || writesOK == 0 {
		t.Fatalf("seed %d drew %d write-burst cuts, %d read-burst cuts, %d writes carried; want all > 0",
			seed, writeCuts, readCuts, writesOK)
	}
	return r.in.TraceString(), after
}

// TestDaemonPipelinedChaosDeterministic is the pinned-seed regression
// for the pipelined transport over real sockets: seed 31337 cuts write
// and read bursts mid-stream, and running it twice must replay the
// identical fault trace and leave the daemon holding the identical bytes
// after every burst.
func TestDaemonPipelinedChaosDeterministic(t *testing.T) {
	const pinnedSeed = 31337
	trace1, held1 := runPipelinedChaosBurst(t, pinnedSeed)
	trace2, held2 := runPipelinedChaosBurst(t, pinnedSeed)
	if trace1 != trace2 {
		t.Fatalf("run-twice divergence in the fault trace:\n--- first\n%s--- second\n%s", trace1, trace2)
	}
	for i := range held1 {
		if !bytes.Equal(held1[i], held2[i]) {
			t.Fatalf("run-twice divergence in the daemon's bytes after burst %d", i)
		}
	}
}

// TestDaemonPipelinedCrashFailsInflightBurst checks crash-stop against a
// pipelined burst: after 8 writes complete, a stall at k = 0 holds the
// next 8 at the proxy, and the crash resets the connection under them.
// All 8 fail with rpc.ErrTransient, and none of their bytes reached the
// daemon.
func TestDaemonPipelinedCrashFailsInflightBurst(t *testing.T) {
	r := newChaosRig(t, "crashy", 9)
	off, err := grant(r.clean, 4096)
	if err != nil {
		t.Fatal(err)
	}
	const burst, chunk = 8, 64
	data := bytes.Repeat([]byte{0x5A}, chunk)
	healthy := make([]*rpc.Future, burst)
	for i := range healthy {
		healthy[i] = r.c.WriteAsync(nil, off+int64(i*chunk), data)
	}
	for i, f := range healthy {
		if _, err := f.Wait(); err != nil {
			t.Fatalf("pre-crash write %d: %v", i, err)
		}
	}
	if k := r.p.Arm(chaos.FaultStall, chaos.ToServer, 1); k != 0 {
		t.Fatalf("stall drawn at %d, want 0", k)
	}
	doomed := make([]*rpc.Future, burst)
	for i := range doomed {
		doomed[i] = r.c.WriteAsync(nil, off+int64((burst+i)*chunk), data)
	}
	r.in.CrashAt(10, 0)
	r.eng.RunUntil(10)
	for i, f := range doomed {
		if _, err := f.Wait(); !errors.Is(err, rpc.ErrTransient) {
			t.Fatalf("write in flight across the crash %d: %v, want rpc.ErrTransient", i, err)
		}
	}
	r.in.RestoreAt(20, 0)
	r.eng.RunUntil(20)
	r.redial()
	got, err := r.c.Read(off, 2*burst*chunk)
	if err != nil {
		t.Fatalf("read after restore: %v", err)
	}
	want := append(bytes.Repeat(data, burst), make([]byte, burst*chunk)...)
	if !bytes.Equal(got, want) {
		t.Fatal("the daemon's bytes are not the 8 completed writes followed by zeros")
	}
}

// TestDaemonCrashStopFailsFast checks the dead-server path end to end: a
// crash resets the connection through the proxy, a call on a fresh dial
// fails while the server is crashed, with rpc.ErrTransient, and the
// daemon sees none of it (its per-method counts do not move). A restore
// lets the next dial through.
func TestDaemonCrashStopFailsFast(t *testing.T) {
	r := newChaosRig(t, "doomed", 5)
	if _, err := r.c.Info(); err != nil {
		t.Fatalf("healthy info: %v", err)
	}
	r.in.CrashAt(10, 0)
	r.eng.RunUntil(10)
	before := r.s.Stats().Methods
	r.redial()
	if _, err := r.c.Info(); !errors.Is(err, rpc.ErrTransient) {
		t.Fatalf("call on a fresh dial to a crashed daemon: %v, want rpc.ErrTransient", err)
	}
	if after := r.s.Stats().Methods; !reflect.DeepEqual(after, before) {
		t.Fatalf("calls to a crashed daemon reached it: methods %+v, then %+v", before, after)
	}
	if tr := r.in.TraceString(); strings.Count(tr, "\n") != 1 || !strings.Contains(tr, " crash srv=0") {
		t.Fatalf("trace = %q, want the crash alone", tr)
	}
	r.in.RestoreAt(20, 0)
	r.eng.RunUntil(20)
	r.hangUp()
	r.dial()
	if _, err := r.c.Info(); err != nil {
		t.Fatalf("info after restore: %v", err)
	}
}
