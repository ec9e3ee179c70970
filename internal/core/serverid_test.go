package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/failure"
)

// TestServerIDBounds calls every exported method that takes a ServerID
// with the two ids just outside the pool, on an uncached pool, a cached
// one and the physical deployment, breakers on. A method that names the
// server it acts on must refuse (an error, or the zero value where there
// is no error to return); one that names only the issuer of an access
// may serve it — an unknown issuer is nobody's neighbour, so it takes the
// direct, all-remote path. None may panic: SharedBytes, BreakerCounters
// and ReportAccess used to index with the id unchecked.
func TestServerIDBounds(t *testing.T) {
	breaker := TailConfig{Breaker: BreakerPolicy{Enabled: true}}
	shapes := map[string]func() (*Pool, error){
		"uncached": func() (*Pool, error) {
			return New(Config{Tail: breaker, Servers: []ServerConfig{
				{Capacity: 4 * SliceSize, SharedBytes: 4 * SliceSize}, {Capacity: 4 * SliceSize, SharedBytes: 4 * SliceSize}}})
		},
		"cached": func() (*Pool, error) {
			return New(Config{Tail: breaker, Cache: CacheConfig{Enabled: true}, Servers: []ServerConfig{
				{Capacity: 4 * SliceSize, SharedBytes: 2 * SliceSize}, {Capacity: 4 * SliceSize, SharedBytes: 2 * SliceSize}}})
		},
		"physical": func() (*Pool, error) {
			return NewPhysical(PhysicalConfig{Servers: 2, LocalBytes: 1 << 20, PoolBytes: 4 * SliceSize})
		},
	}
	const (
		refuses = iota // must return an error
		zero           // has no error to return: must return the zero value
		serves         // may succeed; must not panic
	)
	for name, build := range shapes {
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if (p.tail.breakers == nil) != (name == "physical") { // NewPhysical takes no tail options
			t.Fatalf("%s: breakers on = %t", name, p.tail.breakers != nil)
		}
		b, err := p.Alloc(SliceSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8)
		vecs := []Vec{{Addr: b.Addr(), Data: buf}}
		ctx := context.Background()
		for _, s := range []addr.ServerID{-1, addr.ServerID(p.Servers())} {
			for _, tc := range []struct {
				method string
				want   int
				call   func() any
			}{
				{"MigrateSlice", refuses, func() any { return p.MigrateSlice(addr.SliceOf(b.Addr()), s) }},
				{"ResizeShared", refuses, func() any { return p.ResizeShared(s, SliceSize) }},
				{"ShrinkShared", refuses, func() any { return p.ShrinkShared(s, 0) }},
				{"CompactServer", refuses, func() any { _, err := p.CompactServer(s, 0); return err }},
				{"NewAddressSpace", refuses, func() any { _, err := p.NewAddressSpace(s); return err }},
				{"Crash", refuses, func() any { return p.Crash(s) }},
				{"RepairServer", refuses, func() any { _, err := p.RepairServer(s); return err }},
				{"SharedBytes", zero, func() any { return p.SharedBytes(s) }},
				{"Dead", zero, func() any { return p.Dead(s) }},
				{"BreakerCounters", zero, func() any { return p.BreakerCounters(s) }},
				{"ReportAccess", zero, func() any { p.ReportAccess(s, time.Millisecond, ErrServerDead); return nil }},

				{"Alloc", serves, func() any { _, err := p.Alloc(SliceSize, s); return err }},
				{"AllocProtected", serves, func() any {
					_, err := p.AllocProtected(SliceSize, s, failure.Policy{Scheme: failure.Replicate, Copies: 2})
					return err
				}},
				{"Read", serves, func() any { return p.Read(s, b.Addr(), buf) }},
				{"Write", serves, func() any { return p.Write(s, b.Addr(), buf) }},
				{"ReadCtx", serves, func() any { return p.ReadCtx(ctx, s, b.Addr(), buf) }},
				{"WriteCtx", serves, func() any { return p.WriteCtx(ctx, s, b.Addr(), buf) }},
				{"ReadV", serves, func() any { return p.ReadV(s, vecs) }},
				{"WriteV", serves, func() any { return p.WriteV(s, vecs) }},
				{"ReadVCtx", serves, func() any { return p.ReadVCtx(ctx, s, vecs) }},
				{"WriteVCtx", serves, func() any { return p.WriteVCtx(ctx, s, vecs) }},
				{"CoherentRead", serves, func() any { return p.CoherentRead(s, 0, buf) }},
				{"CoherentWrite", serves, func() any { return p.CoherentWrite(s, 0, buf) }},
				{"Buffer.ReadAt", serves, func() any { return b.ReadAt(s, buf, 0) }},
				{"Buffer.WriteAt", serves, func() any { return b.WriteAt(s, buf, 0) }},
				{"Buffer.ReaderAt", serves, func() any { _, err := b.ReaderAt(s).ReadAt(buf, 0); return err }},
				{"Buffer.WriterAt", serves, func() any { _, err := b.WriterAt(s).WriteAt(buf, 0); return err }},
			} {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s: %s(server %d) panicked: %v", name, tc.method, s, r)
						}
					}()
					switch got := tc.call(); {
					case tc.want == refuses && got == nil:
						t.Errorf("%s: %s(server %d) succeeded", name, tc.method, s)
					case tc.want == zero && got != nil && !reflect.ValueOf(got).IsZero():
						t.Errorf("%s: %s(server %d) = %v, want the zero value", name, tc.method, s, got)
					}
				}()
			}
		}
		if err := p.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
