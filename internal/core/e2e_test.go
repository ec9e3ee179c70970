package core

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
)

// TestPaperDeploymentEndToEnd runs the whole §4 story on the functional
// runtime at 1/1024 scale: a 4-server logical pool with 24 slices each, a
// 96-slice vector placed across all shared regions (infeasible on the
// 64-slice physical device), summed three ways — locally by one server
// pulling, with buffer convenience I/O, and by summing at the owning
// servers — all agreeing on the result.
func TestPaperDeploymentEndToEnd(t *testing.T) {
	// Scaled logical deployment: 4 x 24 slices = 96 slices of pool.
	cfg := Config{Placement: alloc.Striped}
	for i := 0; i < 4; i++ {
		cfg.Servers = append(cfg.Servers, ServerConfig{
			Name: "srv", Capacity: 24 * SliceSize, SharedBytes: 24 * SliceSize,
		})
	}
	pool, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const vectorSlices = 96
	vec, err := pool.Alloc(vectorSlices*SliceSize, 0)
	if err != nil {
		t.Fatalf("the 96-slice vector must fit the logical pool: %v", err)
	}
	// The physical counterpart cannot hold it.
	phys, err := NewPhysical(PhysicalConfig{
		Servers: 4, LocalBytes: 8 * SliceSize, PoolBytes: 64 * SliceSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := phys.Alloc(vectorSlices*SliceSize, 0); err == nil {
		t.Fatal("physical pool accepted the oversized vector")
	}

	// Fill a sparse set of words so the expected sum is known without
	// writing 192MiB.
	var want float64
	word := make([]byte, 8)
	for i := 0; i < vectorSlices; i++ {
		v := uint64(i*31 + 7)
		binary.LittleEndian.PutUint64(word, v)
		off := int64(i)*SliceSize + int64(i%512)*8
		if err := vec.WriteAt(0, word, off); err != nil {
			t.Fatal(err)
		}
		want += float64(v)
	}

	// Way 1: server 0 pulls every written word through the pool.
	var pulled float64
	got := make([]byte, 8)
	for i := 0; i < vectorSlices; i++ {
		off := int64(i)*SliceSize + int64(i%512)*8
		if err := vec.ReadAt(0, got, off); err != nil {
			t.Fatal(err)
		}
		pulled += float64(binary.LittleEndian.Uint64(got))
	}
	if math.Abs(pulled-want) > 1e-6 {
		t.Fatalf("pulled sum %v != %v", pulled, want)
	}

	// Way 2: the sum runs at each owning server against its own slices
	// (plain Buffer.ReadAt issued by the owner); only the four partials
	// would travel.
	partial := map[addr.ServerID]float64{}
	slices := map[addr.ServerID]int{}
	slice := make([]byte, SliceSize)
	for i := 0; i < vectorSlices; i++ {
		off := int64(i) * SliceSize
		loc, err := pool.Translate(vec.Addr() + addr.Logical(off))
		if err != nil {
			t.Fatal(err)
		}
		if err := vec.ReadAt(loc.Server, slice, off); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < len(slice); w += 8 {
			partial[loc.Server] += float64(binary.LittleEndian.Uint64(slice[w:]))
		}
		slices[loc.Server]++
	}
	if len(partial) != 4 {
		t.Fatalf("partials = %d, want one per server", len(partial))
	}
	var owned float64
	for _, v := range partial {
		owned += v
	}
	if math.Abs(owned-want) > 1e-6 {
		t.Fatalf("owner-side sum %v != %v", owned, want)
	}
	// Summing at the owners made every byte local.
	m := pool.metrics
	if remote := m.Counter("pool.bytes.read.remote").Value(); remote >= m.Counter("pool.bytes.read.local").Value() {
		t.Fatalf("owner-side sum did not localize traffic: %d remote vs %d local bytes",
			remote, m.Counter("pool.bytes.read.local").Value())
	}

	// Striping put exactly 24 slices on each server.
	for s, n := range slices {
		if n != 24 {
			t.Fatalf("server %d holds %d slices, want 24", s, n)
		}
	}
}

func TestBufferIOBounds(t *testing.T) {
	p := testPool(t, alloc.LocalityAware)
	b, err := p.Alloc(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ReadAt(0, make([]byte, 10), 95); err == nil {
		t.Fatal("overrun read accepted")
	}
	if err := b.WriteAt(0, []byte{1}, -1); err == nil {
		t.Fatal("negative write accepted")
	}
	if err := b.WriteAt(0, []byte("ok"), 98); err != nil {
		t.Fatal(err)
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if err := b.ReadAt(0, make([]byte, 1), 0); !errors.Is(err, ErrReleased) {
		t.Fatalf("read of released buffer: %v", err)
	}
}
