package daemon

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/lmp-project/lmp/internal/rpc"
)

// callsOn sums how many requests of method the servers have dispatched.
func callsOn(servers []*Server, method byte) uint64 {
	var n uint64
	for _, s := range servers {
		for _, m := range s.Stats().Methods {
			if m.Method == method {
				n += m.Calls
			}
		}
	}
	return n
}

// inUse reports each daemon's granted bytes.
func inUse(t *testing.T, clients []*Client) []int64 {
	t.Helper()
	out := make([]int64, len(clients))
	for i, c := range clients {
		info, err := c.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = info.InUse
	}
	return out
}

// TestPoolViewAllocAsksEachDaemonOnce: a buffer is one extent per daemon
// in the deal, so placing it is one alloc round trip per daemon and
// releasing it one free each, however many stripes it has — here the
// wire_bulk shape, 256 stripes over two daemons.
func TestPoolViewAllocAsksEachDaemonOnce(t *testing.T) {
	v, servers := loopbackView(t, 2, 32<<20, 256<<10)
	allocs, frees := callsOn(servers, MethodAlloc), callsOn(servers, MethodFree)
	b, err := v.Alloc(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if d := callsOn(servers, MethodAlloc) - allocs; d != 2 {
		t.Errorf("placing 256 stripes over 2 daemons took %d alloc calls, want 2", d)
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if d := callsOn(servers, MethodFree) - frees; d != 2 {
		t.Errorf("releasing 256 stripes over 2 daemons took %d free calls, want 2", d)
	}
}

// roundTrip writes random bytes over all of b in pieces whose ends fall
// inside stripes, reads them back whole and in pieces of another length,
// and returns what b holds.
func roundTrip(t *testing.T, b *ViewBuffer, stripe int64, rng *rand.Rand) []byte {
	t.Helper()
	shadow := make([]byte, b.Size())
	rng.Read(shadow)
	for off, n := int64(0), min(int64(7), b.Size()); off < b.Size(); off, n = off+n, stripe/3+5 {
		n = min(n, b.Size()-off)
		if err := b.WriteAt(shadow[off:off+n], off); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, b.Size())
	if err := b.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("whole-buffer read differs from what was written")
	}
	clear(got)
	for off, n := int64(0), min(int64(3), b.Size()); off < b.Size(); off, n = off+n, stripe+stripe/2+1 {
		n = min(n, b.Size()-off)
		if err := b.ReadAt(got[off:off+n], off); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("piecewise read differs from what was written")
	}
	return shadow
}

// TestPoolViewLayout: over 1, 2, 3 and 5 daemons, stripes of 4 KiB, 8 KiB
// and 1 MiB, and sizes on and off the deal's edges, three buffers in a
// row put stripe k on the daemon the round-robin deal gives it, picking
// up where the previous buffer's deal stopped, with stripe k's bytes on
// that daemon; and each buffer round-trips bytes across stripe and
// extent ends. Releasing the buffers leaves every daemon empty.
func TestPoolViewLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, daemons := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("daemons=%d", daemons), func(t *testing.T) {
			var clients []*Client
			for i := 0; i < daemons; i++ {
				_, c := startDaemon(t, "srv", 16<<20, 16<<20)
				clients = append(clients, c)
			}
			for _, stripe := range []int64{4 << 10, 8 << 10, 1 << 20} {
				whole := 2 * stripe * int64(daemons)
				for _, size := range []int64{whole, whole - stripe, whole + 1, stripe / 3} {
					v, err := NewPoolView(stripe, clients...)
					if err != nil {
						t.Fatal(err)
					}
					dealt := 0
					var bufs []*ViewBuffer
					for range 3 {
						b, err := v.Alloc(size)
						if err != nil {
							t.Fatalf("stripe %d, size %d: %v", stripe, size, err)
						}
						bufs = append(bufs, b)
						shadow := roundTrip(t, b, stripe, rng)
						stripes := int((size + stripe - 1) / stripe)
						for k := 0; k < stripes; k++ {
							lo := int64(k) * stripe
							n := min(stripe, size-lo)
							var owner *Client
							var at int64
							if err := b.locate(lo, 1, func(c *Client, a, _, _ int64) { owner, at = c, a }); err != nil {
								t.Fatal(err)
							}
							if want := (dealt + k) % daemons; owner != clients[want] {
								t.Fatalf("stripe %d, size %d: stripe %d is not on daemon %d", stripe, size, k, want)
							}
							got, err := owner.Read(at, int(n))
							if err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(got, shadow[lo:lo+n]) {
								t.Fatalf("stripe %d, size %d: stripe %d's bytes are not on its daemon", stripe, size, k)
							}
						}
						dealt += stripes
					}
					for _, b := range bufs {
						if err := b.Release(); err != nil {
							t.Fatal(err)
						}
					}
					for i, n := range inUse(t, clients) {
						if n != 0 {
							t.Fatalf("stripe %d, size %d: daemon %d holds %d bytes after every release", stripe, size, i, n)
						}
					}
				}
			}
		})
	}
}

// TestPoolViewUnevenDaemons: a daemon with no room for its share leaves
// the deal; the extent granted before it is given back, and the buffer
// lands whole on the others.
func TestPoolViewUnevenDaemons(t *testing.T) {
	var clients []*Client
	for _, shared := range []int64{1 << 20, 64 << 10, 1 << 20} {
		_, c := startDaemon(t, "srv", shared, shared)
		clients = append(clients, c)
	}
	v, err := NewPoolView(8<<10, clients...)
	if err != nil {
		t.Fatal(err)
	}
	// 96 stripes: 256 KiB a daemon over three, 384 KiB over two.
	b, err := v.Alloc(768 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := inUse(t, clients), []int64{384 << 10, 0, 384 << 10}; !slices.Equal(got, want) {
		t.Fatalf("daemons hold %v bytes, want %v", got, want)
	}
	roundTrip(t, b, 8<<10, rand.New(rand.NewSource(2)))
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if got := inUse(t, clients); !slices.Equal(got, make([]int64, 3)) {
		t.Fatalf("daemons hold %v bytes after release", got)
	}
}

// TestPoolViewAllocFailsWhole: when every daemon refuses, Alloc fails and
// holds nothing, though daemons granted their shares on the way there.
func TestPoolViewAllocFailsWhole(t *testing.T) {
	var clients []*Client
	for _, shared := range []int64{512 << 10, 256 << 10, 128 << 10} {
		_, c := startDaemon(t, "srv", shared, shared)
		clients = append(clients, c)
	}
	v, err := NewPoolView(4<<10, clients...)
	if err != nil {
		t.Fatal(err)
	}
	// 225 stripes. Over three daemons, 0 grants 300 KiB and 1 refuses as
	// much; over 0 and 2, 0 grants 452 KiB and 2 refuses 448; 0 alone
	// refuses 900.
	if b, err := v.Alloc(900 << 10); err == nil {
		t.Fatalf("alloc past every daemon's room placed %d bytes", b.Size())
	}
	for i, n := range inUse(t, clients) {
		if n != 0 {
			t.Errorf("daemon %d holds %d bytes after the refused alloc", i, n)
		}
	}
}

// TestShippedSumMatchesPulledSum: both sums equal the sum of the words
// written, and a shipped sum sends one kernel per daemon's extent,
// splitting an extent only past what one sum may cover (rpc.MaxPayload).
func TestShippedSumMatchesPulledSum(t *testing.T) {
	for _, tc := range []struct {
		daemons int
		size    int64
		kernels uint64
	}{
		{daemons: 3, size: 64 << 10, kernels: 3},
		{daemons: 1, size: rpc.MaxPayload + 8<<10, kernels: 2},
	} {
		t.Run(fmt.Sprintf("%dx%d", tc.daemons, tc.size), func(t *testing.T) {
			v, servers := loopbackView(t, tc.daemons, 24<<20, 8<<10)
			b, err := v.Alloc(tc.size)
			if err != nil {
				t.Fatal(err)
			}
			data := make([]byte, tc.size)
			var want float64
			for i := 0; i+8 <= len(data); i += 8 {
				binary.LittleEndian.PutUint64(data[i:], uint64(i%1000))
				want += float64(i % 1000)
			}
			if err := b.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			before := callsOn(servers, MethodSum)
			shipped, err := b.ShippedSum()
			if err != nil {
				t.Fatal(err)
			}
			if d := callsOn(servers, MethodSum) - before; d != tc.kernels {
				t.Errorf("shipped %d kernels, want %d", d, tc.kernels)
			}
			pulled, err := b.PulledSum()
			if err != nil {
				t.Fatal(err)
			}
			if shipped != want || pulled != want {
				t.Errorf("shipped=%v pulled=%v want=%v", shipped, pulled, want)
			}
		})
	}
}
