package daemon

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/chaos"
	"github.com/lmp-project/lmp/internal/core"
	"github.com/lmp-project/lmp/internal/failure"
	"github.com/lmp-project/lmp/internal/rpc"
	"github.com/lmp-project/lmp/internal/sim"
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

// TestPoolViewAllocAsksEachDaemonOnce: placing a buffer asks each daemon
// once for all the slices it deals it — one Info call, for its free
// bytes, and one alloc — and releasing it frees them with one call each,
// however many slices it has: here the wire_bulk shape, 64 MiB (32
// slices) over two daemons.
func TestPoolViewAllocAsksEachDaemonOnce(t *testing.T) {
	v, servers := loopbackView(t, 2, 32<<20, 256<<10)
	infos, allocs, frees := callsOn(servers, MethodInfo), callsOn(servers, MethodAlloc), callsOn(servers, MethodFree)
	b, err := v.Alloc(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if d := callsOn(servers, MethodAlloc) - allocs; d != 2 {
		t.Errorf("placing 32 slices over 2 daemons took %d alloc calls, want 2", d)
	}
	if d := callsOn(servers, MethodInfo) - infos; d != 2 {
		t.Errorf("placing 32 slices over 2 daemons took %d info calls, want 2", d)
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if d := callsOn(servers, MethodFree) - frees; d != 2 {
		t.Errorf("releasing 32 slices over 2 daemons took %d free calls, want 2", d)
	}
}

// roundTrip writes random bytes over all of b in pieces whose ends fall
// inside slices, reads them back whole and in pieces of another length,
// and returns what b holds.
func roundTrip(t *testing.T, b *ViewBuffer, rng *rand.Rand) []byte {
	t.Helper()
	const piece = core.SliceSize
	shadow := make([]byte, b.Size())
	rng.Read(shadow)
	for off, n := int64(0), min(int64(7), b.Size()); off < b.Size(); off, n = off+n, piece/3+5 {
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
	for off, n := int64(0), min(int64(3), b.Size()); off < b.Size(); off, n = off+n, piece+piece/2+1 {
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

// TestPoolViewLayout: over 1, 2, 3 and 5 daemons, and sizes on and off
// the deal's edges, three buffers in a row put slice k on the daemon the
// round-robin deal gives it, picking up where the previous buffer's deal
// stopped — the compute server, which lends nothing, is never dealt a
// slice — with slice k's bytes in that daemon's lent memory where the
// pool's translation says; and each buffer round-trips bytes across
// slice ends. Releasing the buffers leaves every daemon empty.
func TestPoolViewLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, daemons := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("daemons=%d", daemons), func(t *testing.T) {
			var clients []*Client
			for i := 0; i < daemons; i++ {
				_, c := startDaemon(t, "srv", 16<<20, 16<<20)
				clients = append(clients, c)
			}
			whole := int64(daemons) * core.SliceSize
			for _, size := range []int64{whole, whole - core.SliceSize/2, whole + 1, core.SliceSize / 3} {
				v, err := NewPoolView(core.SliceSize, clients...)
				if err != nil {
					t.Fatal(err)
				}
				dealt := 0
				var bufs []*ViewBuffer
				for range 3 {
					b, err := v.Alloc(size)
					if err != nil {
						t.Fatalf("size %d: %v", size, err)
					}
					bufs = append(bufs, b)
					shadow := roundTrip(t, b, rng)
					slices := int((size + core.SliceSize - 1) / core.SliceSize)
					for k := 0; k < slices; k++ {
						lo := int64(k) * core.SliceSize
						n := min(core.SliceSize, size-lo)
						loc, err := v.pool.Translate(b.buf.Addr() + addr.Logical(lo))
						if err != nil {
							t.Fatal(err)
						}
						if want := (dealt + k) % daemons; int(loc.Server) != want {
							t.Fatalf("size %d: slice %d is on server %d, not daemon %d", size, k, loc.Server, want)
						}
						got, err := clients[loc.Server].Read(loc.Offset, int(n))
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, shadow[lo:lo+n]) {
							t.Fatalf("size %d: slice %d's bytes are not on its daemon", size, k)
						}
					}
					dealt += slices
				}
				for _, b := range bufs {
					if err := b.Release(); err != nil {
						t.Fatal(err)
					}
				}
				for i, n := range inUse(t, clients) {
					if n != 0 {
						t.Fatalf("size %d: daemon %d holds %d bytes after every release", size, i, n)
					}
				}
			}
		})
	}
}

// TestPoolViewUnevenDaemons: a daemon with room for fewer than its share
// of slices takes what it has room for, is skipped once full, and the
// others take the rest; everything goes back on release.
func TestPoolViewUnevenDaemons(t *testing.T) {
	var clients []*Client
	for _, shared := range []int64{8 << 20, 2 << 20, 8 << 20} {
		_, c := startDaemon(t, "srv", shared, shared)
		clients = append(clients, c)
	}
	v, err := NewPoolView(8<<10, clients...)
	if err != nil {
		t.Fatal(err)
	}
	// Nine slices: three rounds over three daemons, the middle one full
	// after the first.
	b, err := v.Alloc(18 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := inUse(t, clients), []int64{8 << 20, 2 << 20, 8 << 20}; !slices.Equal(got, want) {
		t.Fatalf("daemons hold %v bytes, want %v", got, want)
	}
	roundTrip(t, b, rand.New(rand.NewSource(2)))
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if got := inUse(t, clients); !slices.Equal(got, make([]int64, 3)) {
		t.Fatalf("daemons hold %v bytes after release", got)
	}
}

// fragment grants two 4 KiB extents at 1 MiB and 3 MiB of a fresh 4 MiB
// daemon, as another tenant of it might: its free bytes still count up
// to a slice, but no slice fits between them.
func fragment(t *testing.T, c *Client) {
	t.Helper()
	var offs [4]int64
	for i, size := range []int64{1 << 20, 4 << 10, 2<<20 - 4<<10, 4 << 10} {
		if err := c.Alloc(size, offs[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if offs[1] != 1<<20 || offs[3] != 3<<20 {
		t.Fatalf("tenant extents at %d and %d, want 1 MiB and 3 MiB", offs[1], offs[3])
	}
	if err := c.Free(offs[0], offs[2]); err != nil {
		t.Fatal(err)
	}
}

// TestPoolViewAllocFailsWhole: two daemons whose free bytes promise a
// slice each, but whose free extents are all smaller, refuse the grants
// the deal asks them for: the whole grant is rolled back — the first
// daemon's with it — the slices are dealt again one alloc at a time, and
// when that runs out too Alloc fails holding nothing.
func TestPoolViewAllocFailsWhole(t *testing.T) {
	var clients []*Client
	for i := range 3 {
		_, c := startDaemon(t, "srv", 4<<20, 4<<20)
		if i > 0 {
			fragment(t, c)
		}
		clients = append(clients, c)
	}
	v, err := NewPoolView(4<<10, clients...)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := v.Alloc(3 * core.SliceSize); err == nil {
		t.Fatalf("alloc past every daemon's room placed %d bytes", b.Size())
	}
	if got, want := inUse(t, clients), []int64{0, 8 << 10, 8 << 10}; !slices.Equal(got, want) {
		t.Errorf("daemons hold %v bytes after the refused alloc, want %v: their tenants' alone", got, want)
	}
}

// TestShippedSumMatchesPulledSum: both sums equal the sum of the words
// written, exactly, and a shipped sum sends one kernel per run of
// back-to-back slices on a daemon, splitting a run only past what one sum
// may cover (rpc.MaxPayload): a 64 KiB buffer is one slice, so one
// kernel; nine slices on one daemon are two.
func TestShippedSumMatchesPulledSum(t *testing.T) {
	for _, tc := range []struct {
		daemons int
		size    int64
		kernels uint64
	}{
		{daemons: 3, size: 64 << 10, kernels: 1},
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

// TestPoolViewLostConnectionIsCrashStop: a cut of one daemon's
// connection under a replica-protected buffer crash-stops that daemon —
// nothing re-dials it — and the read that lost it runs again through
// the replicas, so the buffer's bytes read back whole and the books
// balance; RepairServer then re-homes the daemon's slices, as after any
// crash.
func TestPoolViewLostConnectionIsCrashStop(t *testing.T) {
	v, proxy := proxiedView(t, 3)
	b, err := v.pool.AllocProtected(6*core.SliceSize, v.compute, failure.Policy{Scheme: failure.Replicate, Copies: 2})
	if err != nil {
		t.Fatal(err)
	}
	buf := &ViewBuffer{view: v, buf: b}
	shadow := make([]byte, b.Size())
	rand.New(rand.NewSource(3)).Read(shadow)
	if err := buf.WriteAt(shadow, 0); err != nil {
		t.Fatal(err)
	}
	if k := proxy.Arm(chaos.FaultCut, chaos.ToServer, 1); k != 0 {
		t.Fatalf("cut drawn at %d, want 0", k)
	}
	got := make([]byte, len(shadow))
	if err := buf.ReadAt(got, 0); err != nil {
		t.Fatalf("read across the cut: %v", err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("read across the cut differs from what was written")
	}
	if !v.pool.Dead(0) {
		t.Fatal("the daemon whose connection was cut is not marked dead")
	}
	if err := v.pool.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The read rebuilt the primaries it met on the dead daemon; repair
	// re-homes the replicas it held.
	if _, err := v.pool.RepairServer(0); err != nil {
		t.Fatalf("repair of the cut daemon: %v", err)
	}
	for at := int64(0); at < b.Size(); at += core.SliceSize {
		if owner, err := v.pool.OwnerOf(b.Addr() + addr.Logical(at)); err != nil || owner == 0 {
			t.Fatalf("slice at %d on server %d after repair (%v)", at, owner, err)
		}
	}
	clear(got)
	if err := buf.ReadAt(got, 0); err != nil || !bytes.Equal(got, shadow) {
		t.Fatalf("read after repair: %v, or differs from what was written", err)
	}
	if err := v.pool.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// proxiedView is a PoolView over n 16 MiB daemons, the first reached
// through a chaos proxy.
func proxiedView(t *testing.T, n int) (*PoolView, *chaos.Proxy) {
	t.Helper()
	in := chaos.New(sim.NewEngine(), chaos.Config{Seed: 1})
	var clients []*Client
	var proxy *chaos.Proxy
	for i := range n {
		s, c := startDaemon(t, "srv", 16<<20, 16<<20)
		if i == 0 {
			p, err := in.Proxy(0, s.addr)
			proxy = p
			if err != nil {
				t.Fatal(err)
			}
			raw, err := rpc.Dial(p.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				raw.Close()
				p.Close()
			})
			c = WrapCaller(raw)
		}
		clients = append(clients, c)
	}
	v, err := NewPoolView(core.SliceSize, clients...)
	if err != nil {
		t.Fatal(err)
	}
	return v, proxy
}

// TestPoolViewLostConnectionOnInfo: a placement that finds a daemon's
// connection lost when it reads the daemon's free bytes crash-stops the
// daemon, as a lost read does, and places the buffer on the others.
func TestPoolViewLostConnectionOnInfo(t *testing.T) {
	v, proxy := proxiedView(t, 2)
	if k := proxy.Arm(chaos.FaultCut, chaos.ToServer, 1); k != 0 {
		t.Fatalf("cut drawn at %d, want 0", k)
	}
	b, err := v.Alloc(4 * core.SliceSize)
	if err != nil {
		t.Fatalf("alloc across the cut: %v", err)
	}
	if !v.pool.Dead(0) {
		t.Fatal("the daemon whose connection was cut is not marked dead")
	}
	for at := int64(0); at < b.Size(); at += core.SliceSize {
		if owner, err := v.pool.OwnerOf(b.buf.Addr() + addr.Logical(at)); err != nil || owner != 1 {
			t.Fatalf("slice at %d on server %d (%v), want 1", at, owner, err)
		}
	}
	if err := v.pool.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
