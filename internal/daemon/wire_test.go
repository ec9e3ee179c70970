package daemon

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/lmp-project/lmp/internal/memnode"
	"github.com/lmp-project/lmp/internal/rpc"
	"github.com/lmp-project/lmp/internal/telemetry"
)

// TestHandlerRangeChecksDoNotOverflow walks the boundaries of the shared-
// region check through all three data verbs. The overflow rows are the
// remote panic this guards: off = MaxInt64-5, n = 10 wraps off+n negative,
// used to pass both range checks and died in memnode with an index out of
// range — in a handler goroutine, taking the whole daemon down.
func TestHandlerRangeChecksDoNotOverflow(t *testing.T) {
	const shared = 1 << 16
	s, err := NewServer("srv0", 1<<20, shared)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		off  int64
		n    uint32
		fine bool
	}{
		{0, 0, true},
		{0, shared, true},
		{shared - 1, 1, true},
		{shared, 0, true},
		{0, shared + 1, false},
		{shared - 1, 2, false},
		{shared, 1, false},
		{shared + 1, 0, false},
		{-1, 1, false},
		{math.MaxInt64 - 5, 10, false},
		{math.MaxInt64, 1, false},
		{math.MaxInt64 - shared, shared, false},
		{math.MinInt64, 10, false},
	} {
		if out, err := s.receiveRead(rawRange(tc.off, tc.n), bytes.NewReader(nil), 0); (err == nil) != tc.fine || (err == nil && len(out) != int(tc.n)) {
			t.Errorf("read %d bytes at %d: %d bytes, %v, want in range = %t", tc.n, tc.off, len(out), err, tc.fine)
		}
		if _, err := s.handleSum(rawRange(tc.off, tc.n)); (err == nil) != tc.fine {
			t.Errorf("sum %d bytes at %d: %v, want in range = %t", tc.n, tc.off, err, tc.fine)
		}
		if _, err := s.receiveWrite(binary.BigEndian.AppendUint64(nil, uint64(tc.off)), bytes.NewReader(make([]byte, tc.n)), int(tc.n)); (err == nil) != tc.fine {
			t.Errorf("write %d bytes at %d: %v, want in range = %t", tc.n, tc.off, err, tc.fine)
		}
	}
}

// TestReadRepliesFromLentMemory: a read's reply is the node's own bytes,
// not a copy of them, so the server copies nothing per byte it serves: a
// write landing after the read was served shows through its reply.
func TestReadRepliesFromLentMemory(t *testing.T) {
	s, err := NewServer("srv0", 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := s.receiveRead(rawRange(4096, 64), bytes.NewReader(nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	later := bytes.Repeat([]byte{0x5A}, 64)
	if err := s.node.WriteAt(later, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply, later) {
		t.Error("a read's reply is a copy of lent memory, not a view of it")
	}
}

// TestSumReadsLentMemoryInPlace: the near-memory sum walks the node's own
// bytes. It used to stage the range in a buffer first, so every 16 MiB
// sum left 16 MiB to the collector.
func TestSumReadsLentMemoryInPlace(t *testing.T) {
	const n = rpc.MaxPayload
	s, err := NewServer("srv0", n, n)
	if err != nil {
		t.Fatal(err)
	}
	var word [8]byte
	var want float64
	for i := int64(0); i < 64; i++ {
		binary.LittleEndian.PutUint64(word[:], uint64(i*i))
		if err := s.node.WriteAt(word[:], i*(n/64)); err != nil {
			t.Fatal(err)
		}
		want += float64(i * i)
	}
	req := rawRange(0, n)
	var got []byte
	bytesPerOp, _ := allocsPerOp(4, func() {
		for i := 0; i < 4; i++ {
			if got, err = s.handleSum(req); err != nil {
				t.Fatal(err)
			}
		}
	})
	if sum := math.Float64frombits(binary.BigEndian.Uint64(got)); sum != want {
		t.Fatalf("sum of the region = %g, want %g", sum, want)
	}
	if bytesPerOp >= 1024 {
		t.Errorf("a %d-byte sum allocates %.0f B, want under 1 KiB", n, bytesPerOp)
	}
}

// TestCloseWhileReadsStream: a read's reply is a view of lent memory that
// the connection's flusher writes out after the read was served, so it is
// valid only while the node is mapped — and the collector unmaps the node
// as soon as nothing holds the daemon. Close a daemon while two callers
// stream 1 MiB reads from it and the collector runs in a loop: every
// call resolves, with the region's bytes or with the transport's failure
// (the connection lost under it, or ErrClosed), and nothing faults.
func TestCloseWhileReadsStream(t *testing.T) {
	const size = 1 << 20
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i*7 + 1)
	}
	stop := make(chan struct{})
	var collector sync.WaitGroup
	collector.Add(1)
	go func() {
		defer collector.Done()
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	defer func() {
		close(stop)
		collector.Wait()
	}()
	for round := 0; round < 3; round++ {
		s, err := NewServer("srv0", 4*size, 4*size)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Skipf("listening on loopback is forbidden here: %v", err)
		}
		if err := s.node.WriteAt(want, 0); err != nil {
			t.Fatal(err)
		}
		var callers sync.WaitGroup
		streaming := make(chan struct{}, 2)
		for c := 0; c < 2; c++ {
			cl, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			callers.Add(1)
			go func() {
				defer callers.Done()
				defer cl.Close()
				signalled := false
				defer func() {
					if !signalled {
						streaming <- struct{}{}
					}
				}()
				got := make([]byte, size)
				for i := 0; ; i++ {
					if i == 3 {
						streaming <- struct{}{}
						signalled = true
					}
					f := cl.ReadAsync(nil, 0, got)
					_, err := f.Wait()
					f.Release()
					if err != nil {
						if !lostConnection(err) {
							t.Errorf("a read cut by the daemon's close failed with %v, want a lost connection or ErrClosed", err)
						}
						return
					}
					if !bytes.Equal(got, want) {
						t.Error("a read streamed during the daemon's close returned bytes the region does not hold")
						return
					}
				}
			}()
		}
		<-streaming
		<-streaming
		// Close returns once every connection's flusher has exited; from
		// here on nothing holds s, and the collector may unmap its node.
		s.Close()
		callers.Wait()
	}
}

// lostConnection reports whether err is what a call sees when its daemon
// goes away: the connection ended under it, or its client was closed.
func lostConnection(err error) bool {
	return errors.Is(err, rpc.ErrClosed) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// TestOversizedReadKeepsConnection: a read (or sum) of more bytes than a
// reply frame can carry passes the region check on a large region. It
// used to allocate, have the codec refuse the reply, and lose the
// connection — failing that call and every call pipelined behind it with
// "connection lost". It is an ordinary error reply now.
func TestOversizedReadKeepsConnection(t *testing.T) {
	_, c := startDaemon(t, "srv0", 64<<20, 64<<20)
	msg := []byte("still here")
	if err := c.Write(4096, msg); err != nil {
		t.Fatal(err)
	}
	// The client refuses such a length itself, so send the raw requests.
	var re *rpc.RemoteError
	if _, err := c.c.Call(MethodRead, rawRange(0, 17<<20)); !errors.As(err, &re) || !strings.Contains(re.Message, "a reply can carry") {
		t.Fatalf("17 MiB read: %v, want the handler's size error", err)
	}
	if _, err := c.c.Call(MethodSum, rawRange(0, 17<<20)); !errors.As(err, &re) {
		t.Fatalf("17 MiB sum: %v, want a handler error", err)
	}
	got, err := c.Read(4096, len(msg))
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("read after the refused one, same connection: %q, %v", got, err)
	}
	// The largest read a frame does carry still works.
	if got, err := c.Read(0, rpc.MaxPayload); err != nil || len(got) != rpc.MaxPayload {
		t.Fatalf("MaxPayload read: %d bytes, %v", len(got), err)
	}
}

// TestWriteCutMidPayload: a write whose connection is cut in the middle
// of its payload gets no reply — the daemon closes the connection — and
// lent memory past the bytes that arrived, inside the declared range and
// beyond it, is untouched; the daemon goes on serving.
func TestWriteCutMidPayload(t *testing.T) {
	const n = 64 << 10
	s, c := startDaemon(t, "srv0", 1<<20, 1<<20)
	before := bytes.Repeat([]byte{0xC3}, 3*n)
	if err := c.Write(0, before); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", s.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A bare write frame (kind 1) of n bytes at offset n, cut in half.
	frame := []byte{1, MethodWrite}
	frame = binary.BigEndian.AppendUint64(frame, 1)
	frame = binary.BigEndian.AppendUint32(frame, 8+n)
	frame = binary.BigEndian.AppendUint64(frame, n)
	frame = append(frame, bytes.Repeat([]byte{0x3C}, n/2)...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if k, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after a cut write the daemon sent %d bytes, %v; want the connection closed", k, err)
	}
	got, err := c.Read(0, 3*n)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append(before[:n:n], bytes.Repeat([]byte{0x3C}, n/2)...), before[n+n/2:]...)
	if !bytes.Equal(got, want) {
		t.Error("lent memory does not hold exactly the bytes that arrived")
	}
}

// rawRange encodes a read or sum request of any 32-bit length, as a peer
// may put it on the socket; rangeHead refuses what no reply can carry.
func rawRange(off int64, n uint32) []byte {
	return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(nil, uint64(off)), n)
}

// lyingCaller answers every call with reply, counting the calls.
type lyingCaller struct {
	calls int
	reply []byte
}

func (l *lyingCaller) Call(method byte, p []byte) ([]byte, error) {
	return l.CallCtx(nil, method, p)
}

func (l *lyingCaller) CallCtx(_ context.Context, _ byte, _ []byte) ([]byte, error) {
	l.calls++
	return l.reply, nil
}

// TestRangeVerbsRefuseUnencodableLengths: a read or sum request carries
// its length in 32 bits, so Read(0, 1<<32+10) went out as a 10-byte read
// and returned 10 bytes with a nil error (and Sum the sum of 10 bytes).
// Every range verb refuses a length no reply can carry before it sends
// (or allocates) anything, and Read refuses a reply that is not the
// length it asked for.
func TestRangeVerbsRefuseUnencodableLengths(t *testing.T) {
	l := &lyingCaller{reply: make([]byte, 10)}
	c := WrapCaller(l)
	if _, err := c.ReadAsync(context.Background(), 0, make([]byte, rpc.MaxPayload+1)).Wait(); err == nil {
		t.Errorf("ReadAsync into %d bytes: nil error", rpc.MaxPayload+1)
	}
	for _, n := range []int{-1, rpc.MaxPayload + 1, 1<<32 + 10} {
		if got, err := c.Read(0, n); err == nil {
			t.Errorf("Read(0, %d) = %d bytes, nil error", n, len(got))
		}
		if sum, err := c.Sum(0, n); err == nil {
			t.Errorf("Sum(0, %d) = %g, nil error", n, sum)
		}
		if _, err := c.SumAsync(context.Background(), 0, n).Wait(); err == nil {
			t.Errorf("SumAsync(0, %d): nil error", n)
		}
	}
	if l.calls != 0 {
		t.Errorf("%d requests sent for lengths no reply can carry", l.calls)
	}
	if got, err := c.Read(0, 64); err == nil {
		t.Errorf("Read(0, 64) of a 10-byte reply = %d bytes, nil error", len(got))
	}
	dst := bytes.Repeat([]byte{0xaa}, 64)
	if _, err := c.ReadAsync(context.Background(), 0, dst).Wait(); err == nil || !bytes.Equal(dst, bytes.Repeat([]byte{0xaa}, 64)) {
		t.Errorf("ReadAsync into 64 bytes of a 10-byte reply: %v, destination written: %t", err, !bytes.Equal(dst, bytes.Repeat([]byte{0xaa}, 64)))
	}
}

// TestPoolViewRejectsUncarriableStripe: a stripe whose whole-chunk write
// cannot fit one frame would fail on first use; it fails at construction.
func TestPoolViewRejectsUncarriableStripe(t *testing.T) {
	_, c := startDaemon(t, "x", 1<<16, 1<<16)
	if _, err := NewPoolView(rpc.MaxPayload, c); err == nil {
		t.Error("a MaxPayload stripe (no room for the write header) accepted")
	}
	if _, err := NewPoolView(maxStripe, c); err != nil {
		t.Errorf("a %d-byte stripe refused: %v", maxStripe, err)
	}
}

// loopbackView builds the benchmark's deployment in small: n in-process
// daemons on loopback listeners, one connection each, a PoolView with the
// given stripe. It skips the test where listening is forbidden.
func loopbackView(t *testing.T, n int, shared, stripe int64) (*PoolView, []*Server) {
	t.Helper()
	var clients []*Client
	var servers []*Server
	for i := 0; i < n; i++ {
		s, err := NewServer("srv", shared, shared)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Skipf("listening on loopback is forbidden here: %v", err)
		}
		c, err := rpc.Dial(addr)
		if err != nil {
			s.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() {
			c.Close()
			s.Close()
		})
		clients = append(clients, WrapCaller(c))
		servers = append(servers, s)
	}
	v, err := NewPoolView(stripe, clients...)
	if err != nil {
		t.Fatal(err)
	}
	return v, servers
}

// TestWirePathAllocBudget is the count guard of the wire path, in the two
// shapes of the wire benchmarks. Neither allocates per op once warm, and
// neither takes a buffer for its requests: a write's bytes leave from the
// caller's slice and go straight into lent memory, a read's request is a
// head carried in its queue entry, and its reply leaves from lent memory
// straight into the caller's slice. A buffer taken on either side of the
// data path would be an allocation, which the budgets below count.
func TestWirePathAllocBudget(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops puts under the race detector; the budget is checked without it")
	}
	// 1 MiB: alternating 1 MiB reads and writes through 256 KiB stripes,
	// one caller — the wire_bulk shape, over four loopback daemons so that
	// each op sends one chunk to each and every frame goes out bare.
	t.Run("1MiB", func(t *testing.T) {
		const chunks = 4
		v, servers := loopbackView(t, chunks, 32<<20, 256<<10)
		b, err := v.Alloc(8 << 20)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 1<<20)
		for i := range data {
			data[i] = byte(i * 13)
		}
		got := make([]byte, len(data))
		write := func(i int) {
			if err := b.WriteAtCtx(nil, data, int64(i%8)<<20); err != nil {
				t.Fatal(err)
			}
		}
		read := func(i int) {
			if err := b.ReadAtCtx(nil, got, int64(i%8)<<20); err != nil {
				t.Fatal(err)
			}
		}
		op := func(i int) {
			if i%2 == 0 {
				write(i / 2)
			} else {
				read(i / 2)
			}
		}
		// Warm-up: pages materialize, and scratch and object pools fill.
		for i := 0; i < 64; i++ {
			op(i)
		}
		const ops = 200
		bytesPerOp, mallocsPerOp := allocsPerOp(ops, func() {
			for i := 0; i < ops; i++ {
				op(i)
			}
		})
		if !bytes.Equal(got, data) {
			t.Fatal("the last read did not return what was written")
		}
		t.Logf("%.0f B and %.1f mallocs per 1 MiB op", bytesPerOp, mallocsPerOp)
		if bytesPerOp > 1024 || mallocsPerOp >= 1 {
			t.Errorf("a 1 MiB op allocates %.0f B in %.1f objects, want at most 1024 B in under one", bytesPerOp, mallocsPerOp)
		}
		// Nor does a read start a goroutine on the server: with every span
		// slow, the slow-op hook runs on the goroutine that served the
		// request, and for a read that is its connection's read loop.
		var mu sync.Mutex
		var served, ownGoroutine int
		for _, s := range servers {
			s.SetSlowOpNS(0)
			s.OnSlowOp(func(sp telemetry.Span) {
				if sp.Op != "rpc.read" {
					return
				}
				stack := make([]byte, 8<<10)
				stack = stack[:runtime.Stack(stack, false)]
				mu.Lock()
				defer mu.Unlock()
				served++
				if !bytes.Contains(stack, []byte("rpc.(*Server).serveConn(")) {
					ownGoroutine++
				}
			})
		}
		for i := 0; i < 8; i++ {
			read(i)
		}
		mu.Lock()
		defer mu.Unlock()
		if served != 8*chunks || ownGoroutine != 0 {
			t.Errorf("of %d chunk reads served, %d ran on a goroutine other than their connection's read loop; want %d served, none elsewhere", served, ownGoroutine, 8*chunks)
		}
	})
	// 64 B: two callers issue 64-byte ops, four reads to a write, through
	// a view of two daemons — the wire_small shape, whose concurrent small
	// requests and replies are packed into shared writes both ways. Each
	// side reads a packed frame as it reads one written alone.
	t.Run("64B", func(t *testing.T) {
		v, _ := loopbackView(t, 2, 32<<20, 1<<20)
		b, err := v.Alloc(8 << 20)
		if err != nil {
			t.Fatal(err)
		}
		const perCaller, callers = 4000, 2
		run := func(n int) {
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					p := make([]byte, 64)
					for i := 0; i < n; i++ {
						off := int64((i*callers+c)*4160) % (8<<20 - 64)
						var err error
						if i%5 == 0 {
							err = b.WriteAtCtx(nil, p, off)
						} else {
							err = b.ReadAtCtx(nil, p, off)
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
		}
		run(perCaller) // warm-up
		bytesPerOp, mallocsPerOp := allocsPerOp(callers*perCaller, func() { run(perCaller) })
		t.Logf("%.1f B and %.3f mallocs per 64 B op", bytesPerOp, mallocsPerOp)
		if mallocsPerOp >= 0.01 {
			t.Errorf("a 64 B op allocates %.3f objects (%.1f B) in steady state, want 0", mallocsPerOp, bytesPerOp)
		}
	})
}

// allocsPerOp runs fn, which performs ops operations, and reports the
// heap bytes and objects it allocated per operation.
func allocsPerOp(ops int, fn func()) (bytesPerOp, mallocsPerOp float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(ops), float64(after.Mallocs-before.Mallocs) / float64(ops)
}

// TestWireTrafficLeavesNoPerPageState: a wire read is decode, bounds
// check, a view of the node as the reply — the daemon keeps nothing per
// page it served. The same number of 64-byte reads is issued twice, first
// all at one page, then one at every page of the region; the live heap
// objects the second pass leaves behind must not scale with the pages it
// touched (a per-page access record would leave one each).
func TestWireTrafficLeavesNoPerPageState(t *testing.T) {
	const pages = 4096
	_, c := startDaemon(t, "srv0", pages*memnode.PageSize, pages*memnode.PageSize)
	liveObjects := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	pass := func(stride int64) {
		for i := int64(0); i < pages; i++ {
			if _, err := c.Read(i*stride, 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass(0)
	before := liveObjects()
	pass(memnode.PageSize)
	after := liveObjects()
	t.Logf("live heap objects: %d after %d reads of one page, %d after a read of each of %d pages", before, pages, after, pages)
	if after > before+pages/8 {
		t.Errorf("reading %d distinct pages left %d more live heap objects than reading one page as often", pages, after-before)
	}
}

// TestMetricsMatchGolden pins the names the daemon's registry exports
// against testdata/metrics.golden — the list `make obs-smoke` diffs a
// real lmpd's /metrics against — so a renamed or missing metric fails
// here too, where no socket is needed.
func TestMetricsMatchGolden(t *testing.T) {
	s, err := NewServer("srv0", 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := telemetry.WritePrometheus(&out, s.Metrics()); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(out.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			names = append(names, strings.Fields(line)[0])
		}
	}
	sort.Strings(names)
	golden, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(names, "\n") + "\n"; got != string(golden) {
		t.Errorf("exported metric names:\n%swant (testdata/metrics.golden):\n%s", got, golden)
	}
}
