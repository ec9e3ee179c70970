package daemon

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/lmp-project/lmp/internal/rpc"
)

func startDaemon(t *testing.T, name string, capacity, shared int64) (*Server, *Client) {
	t.Helper()
	s, err := NewServer(name, capacity, shared)
	if err != nil {
		t.Fatal(err)
	}
	addrStr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addrStr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		s.Close()
	})
	return s, c
}

func TestInfo(t *testing.T) {
	_, c := startDaemon(t, "srv0", 1<<20, 1<<20)
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "srv0" || info.Capacity != 1<<20 || info.Shared != 1<<20 || info.InUse != 0 {
		t.Fatalf("info = %+v", info)
	}
}

func TestAllocReadWriteOverTCP(t *testing.T) {
	_, c := startDaemon(t, "srv0", 1<<20, 1<<20)
	off, err := c.Alloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("cxl.mem over tcp")
	if err := c.Write(off+1000, msg); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(off+1000, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip: %q", got)
	}
	if err := c.Free(off); err != nil {
		t.Fatal(err)
	}
	if err := c.Free(off); err == nil {
		t.Fatal("double free accepted")
	}
}

// TestFreeScrubsExtent: a freed extent is handed to the next tenant as
// zeros, not with the previous tenant's bytes in it, and the daemon's
// books show the memory went back to the host.
func TestFreeScrubsExtent(t *testing.T) {
	const extent = 1 << 20
	s, c := startDaemon(t, "srv0", 4<<20, 4<<20)
	off, err := c.Alloc(extent)
	if err != nil {
		t.Fatal(err)
	}
	secret := bytes.Repeat([]byte("tenant-A "), extent/9)
	if err := c.Write(off, secret); err != nil {
		t.Fatal(err)
	}
	before, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Free(off); err != nil {
		t.Fatal(err)
	}
	again, err := c.Alloc(extent)
	if err != nil {
		t.Fatal(err)
	}
	if again != off {
		t.Fatalf("second tenant got offset %d, not the freed %d: the test no longer reads the recycled bytes", again, off)
	}
	got, err := c.Read(again, len(secret))
	if err != nil {
		t.Fatal(err)
	}
	if i := bytes.IndexFunc(got, func(r rune) bool { return r != 0 }); i >= 0 {
		t.Fatalf("recycled extent reads %q at byte %d, want zeros", got[i:min(i+9, len(got))], i)
	}
	after, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if d := after.DroppedBytes - before.DroppedBytes; d != extent {
		t.Errorf("dropped_bytes moved by %d across the free, want %d", d, extent)
	}
	// The Go toolchain only knows the resident set on Linux; elsewhere
	// both readings are 0.
	if before.ResidentBytes != 0 && before.ResidentBytes-after.ResidentBytes < extent*3/4 {
		t.Errorf("resident_bytes %d -> %d across the free of %d", before.ResidentBytes, after.ResidentBytes, extent)
	}
	if g := s.Metrics().Gauge("memnode.resident_bytes").Value(); g != s.Stats().ResidentBytes {
		t.Errorf("scraped gauge %d, stats say %d", g, s.Stats().ResidentBytes)
	}
}

// A shrink of the shared region hands the vacated tail back, and counts it.
func TestResizeShrinkDropsTail(t *testing.T) {
	s, c := startDaemon(t, "srv0", 4<<20, 4<<20)
	if err := c.Write(3<<20, bytes.Repeat([]byte{0xEE}, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if err := c.Resize(1 << 20); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().DroppedBytes; got != 3<<20 {
		t.Fatalf("dropped_bytes = %d after shrinking 4 MiB to 1, want 3 MiB", got)
	}
	if err := c.Resize(4 << 20); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(3<<20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 4096)) {
		t.Fatalf("regrown tail reads %x..., want zeros", got[:8])
	}
}

func TestAccessOutsideSharedRejected(t *testing.T) {
	_, c := startDaemon(t, "srv0", 1<<20, 1<<16)
	// The bounds check fires server-side, so the client sees it as a
	// typed *rpc.RemoteError carrying the handler's message.
	_, err := c.Read(1<<16, 64)
	var re *rpc.RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Message, "outside shared region") {
		t.Fatalf("out-of-region read: %v", err)
	}
	if err := c.Write(-1, []byte("x")); err == nil {
		t.Fatal("negative write accepted")
	}
}

func TestShippedSumKernel(t *testing.T) {
	_, c := startDaemon(t, "srv0", 1<<20, 1<<20)
	off, err := c.Alloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	// 512 words of value 3.
	buf := make([]byte, 4096)
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], 3)
	}
	if err := c.Write(off, buf); err != nil {
		t.Fatal(err)
	}
	sum, err := c.Sum(off, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if sum != 3*512 {
		t.Fatalf("sum = %v, want 1536", sum)
	}
}

// TestRetiredMethodIsUnknown: method 8 was the per-page heat query. The
// number is retired, not reused, and a peer that still sends it gets the
// error any unassigned method gets — while its neighbour 9 is still the
// stats snapshot.
func TestRetiredMethodIsUnknown(t *testing.T) {
	_, c := startDaemon(t, "srv0", 1<<20, 1<<20)
	if MethodResize != 7 || MethodStats != 9 {
		t.Fatalf("wire numbers moved: resize %d, stats %d", MethodResize, MethodStats)
	}
	for _, method := range []byte{8, 200} { // the retired number, and one never assigned
		_, err := c.c.Call(method, []byte{0, 0, 0, 5})
		var re *rpc.RemoteError
		if want := fmt.Sprintf("no handler for method %d", method); !errors.As(err, &re) || !strings.Contains(re.Message, want) {
			t.Fatalf("method %d answered %v, want %q", method, err, want)
		}
	}
	if _, err := c.Stats(); err != nil {
		t.Fatalf("stats after the refused calls: %v", err)
	}
}

func TestResizeOverTCP(t *testing.T) {
	_, c := startDaemon(t, "srv0", 1<<20, 1<<16)
	if err := c.Resize(1 << 18); err != nil {
		t.Fatal(err)
	}
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Shared != 1<<18 {
		t.Fatalf("shared after resize = %d", info.Shared)
	}
	if err := c.Resize(1 << 21); err == nil {
		t.Fatal("resize beyond capacity accepted")
	}
}

func TestExhaustionOverTCP(t *testing.T) {
	_, c := startDaemon(t, "srv0", 1<<16, 1<<16)
	if _, err := c.Alloc(1 << 17); err == nil {
		t.Fatal("over-alloc accepted")
	}
}

func startCluster(t *testing.T, n int, capacity int64) *PoolView {
	t.Helper()
	var clients []*Client
	for i := 0; i < n; i++ {
		_, c := startDaemon(t, "srv", capacity, capacity)
		clients = append(clients, c)
	}
	v, err := NewPoolView(8<<10, clients...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestPoolViewValidation(t *testing.T) {
	if _, err := NewPoolView(64); err == nil {
		t.Fatal("empty view accepted")
	}
	_, c := startDaemon(t, "x", 1<<16, 1<<16)
	if _, err := NewPoolView(0, c); err == nil {
		t.Fatal("zero stripe accepted")
	}
}

func TestPoolViewStripedRoundTrip(t *testing.T) {
	v := startCluster(t, 4, 1<<20)
	b, err := v.Alloc(100 << 10) // 100KiB across 4 daemons in 8KiB stripes
	if err != nil {
		t.Fatal(err)
	}
	// 13 stripes dealt over 4 daemons: 4 to the first, the last of them
	// 4 KiB, and 3 to each of the others.
	if got, want := inUse(t, v.clients), []int64{28 << 10, 24 << 10, 24 << 10, 24 << 10}; !slices.Equal(got, want) {
		t.Fatalf("daemons hold %v bytes, want %v", got, want)
	}
	data := make([]byte, 40<<10)
	for i := range data {
		data[i] = byte(i * 7)
	}
	// Offset chosen to span multiple stripes.
	if err := b.WriteAt(data, 5000); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := b.ReadAt(got, 5000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("striped round trip failed")
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestPoolViewBounds(t *testing.T) {
	v := startCluster(t, 2, 1<<20)
	b, err := v.Alloc(16 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ReadAt(make([]byte, 10), b.Size()-5); err == nil {
		t.Fatal("overrun read accepted")
	}
	if err := b.WriteAt([]byte("x"), -1); err == nil {
		t.Fatal("negative write accepted")
	}
	if _, err := v.Alloc(0); err == nil {
		t.Fatal("zero alloc accepted")
	}
}

func TestPoolViewExhaustionRollsBack(t *testing.T) {
	v := startCluster(t, 2, 1<<16) // 2 x 64KiB
	if _, err := v.Alloc(1 << 20); err == nil {
		t.Fatal("impossible alloc accepted")
	}
	// All space must be free again.
	b, err := v.Alloc(2 * (1 << 16) / 2)
	if err != nil {
		t.Fatalf("post-rollback alloc: %v", err)
	}
	_ = b
}

// A released buffer has no placement left: an access must say so instead
// of visiting no chunk and reporting success with the caller's bytes
// untouched (reads) or dropped (writes).
func TestViewBufferAccessAfterRelease(t *testing.T) {
	v := startCluster(t, 3, 1<<20)
	b, err := v.Alloc(24 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WriteAt([]byte("tenant-A-secret"), 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	got := bytes.Repeat([]byte{0xaa}, 15)
	if err := b.ReadAt(got, 0); err == nil {
		t.Errorf("read of a released buffer succeeded, buffer now %q", got)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0xaa}, 15)) {
		t.Errorf("refused read wrote %q into the caller's buffer", got)
	}
	if err := b.WriteAt([]byte("x"), 0); err == nil {
		t.Error("write to a released buffer succeeded")
	}
	if err := b.WriteAtCtx(context.Background(), nil, 0); err == nil {
		t.Error("empty write to a released buffer succeeded")
	}
	// The stripes really went back: the next tenant gets them, zeroed.
	next, err := v.Alloc(24 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := next.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 15)) {
		t.Fatalf("next tenant reads %q, want zeros", got)
	}
}

// hostileCaller is a transport whose peer answers every method with a
// fixed reply, whatever was asked: the shape of a buggy or hostile daemon.
type hostileCaller struct{ reply map[byte][]byte }

func (h hostileCaller) Call(method byte, payload []byte) ([]byte, error) {
	return h.reply[method], nil
}

func (h hostileCaller) CallCtx(_ context.Context, method byte, payload []byte) ([]byte, error) {
	return h.reply[method], nil
}

// TestClientRejectsWrongLengthReplies pins the wire client's treatment of
// hostile bytes: a reply that is not exactly the length the request fixed
// is an error — not an index panic (Alloc, Sum) and not a silent short
// copy that leaves zeros in the caller's buffer (ViewBuffer reads).
func TestClientRejectsWrongLengthReplies(t *testing.T) {
	eight := []byte{0, 0, 0, 0, 0, 0, 0, 64}
	for _, tc := range []struct {
		name  string
		reply []byte
	}{{"empty", nil}, {"short", eight[:7]}, {"long", append(eight[:8:8], 1)}} {
		t.Run(tc.name, func(t *testing.T) {
			c := WrapCaller(hostileCaller{reply: map[byte][]byte{
				MethodAlloc: tc.reply, MethodSum: tc.reply, MethodRead: tc.reply,
			}})
			if _, err := c.Alloc(64); err == nil {
				t.Error("Alloc accepted the reply")
			}
			if _, err := c.Sum(0, 64); err == nil {
				t.Error("Sum accepted the reply")
			}
			v, err := NewPoolView(64, WrapCaller(hostileCaller{reply: map[byte][]byte{
				MethodAlloc: eight, MethodRead: tc.reply,
			}}))
			if err != nil {
				t.Fatal(err)
			}
			b, err := v.Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			got := bytes.Repeat([]byte{0xaa}, 64)
			if err := b.ReadAt(got, 0); err == nil {
				t.Errorf("ReadAt accepted a %d-byte reply to a 64-byte read", len(tc.reply))
			}
			if !bytes.Equal(got, bytes.Repeat([]byte{0xaa}, 64)) {
				t.Error("a refused reply was copied into the caller's buffer")
			}
		})
	}
	// The well-formed reply still decodes.
	c := WrapCaller(hostileCaller{reply: map[byte][]byte{MethodAlloc: eight}})
	if off, err := c.Alloc(64); err != nil || off != 64 {
		t.Fatalf("Alloc with an 8-byte reply = %d, %v", off, err)
	}
}
