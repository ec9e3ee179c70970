package main

import (
	"context"
	"errors"
	"fmt"

	lmp "github.com/lmp-project/lmp"
	"github.com/lmp-project/lmp/internal/daemon"
	"github.com/lmp-project/lmp/internal/rpc"
)

// target is a built deployment with its one prefilled buffer. ctx is nil
// except in a traced round, where it carries the caller's tracer.
type target interface {
	read(ctx context.Context, caller int, p []byte, off int64) error
	write(ctx context.Context, caller int, p []byte, off int64) error
	close()
}

// build sets the workload's deployment up and prefills its buffer with
// version-0 blocks: everything setup_s covers. traced installs the seam
// on the wire path; noTrace builds the pool with the program's own
// tracing disabled (the telemetry.tax_share arm).
func (sp *spec) build(traced, noTrace bool) (target, error) {
	var t target
	var err error
	if sp.wire {
		t, err = buildWire(sp, traced)
	} else {
		t, err = buildPool(sp, noTrace)
	}
	if err != nil {
		return nil, err
	}
	fill := make([]byte, 1<<20)
	for off := int64(0); off < sp.bufBytes; off += int64(len(fill)) {
		encodeBlocks(fill, off, prefillWriter, 0)
		if err := t.write(nil, 0, fill, off); err != nil {
			t.close()
			return nil, fmt.Errorf("prefill at %d: %w", off, err)
		}
	}
	return t, nil
}

// errListen marks a sandbox that forbids listening on loopback; the
// smoke test skips on it.
var errListen = errors.New("listen on loopback")

// wireTarget is the TCP path: in-process daemons on loopback listeners,
// one connection per daemon shared by both callers, composed by a
// PoolView.
type wireTarget struct {
	servers []*daemon.Server
	rpcs    []*rpc.Client
	buf     *daemon.ViewBuffer
}

func buildWire(sp *spec, traced bool) (*wireTarget, error) {
	w := &wireTarget{}
	var clients []*daemon.Client
	for i := 0; i < sp.lenders; i++ {
		srv, err := daemon.NewServer(fmt.Sprintf("d%d", i), sp.lendBytes, sp.lendBytes)
		if err != nil {
			w.close()
			return nil, err
		}
		w.servers = append(w.servers, srv)
		bound, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			w.close()
			return nil, fmt.Errorf("%w: %v", errListen, err)
		}
		c, err := rpc.Dial(bound)
		if err != nil {
			w.close()
			return nil, err
		}
		w.rpcs = append(w.rpcs, c)
		if traced {
			clients = append(clients, daemon.WrapCaller(seamCaller{c}))
		} else {
			clients = append(clients, daemon.WrapCaller(c))
		}
	}
	view, err := daemon.NewPoolView(sp.stripe, clients...)
	if err == nil {
		w.buf, err = view.Alloc(sp.bufBytes)
	}
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *wireTarget) read(ctx context.Context, _ int, p []byte, off int64) error {
	return w.buf.ReadAtCtx(ctx, p, off)
}

func (w *wireTarget) write(ctx context.Context, _ int, p []byte, off int64) error {
	return w.buf.WriteAtCtx(ctx, p, off)
}

func (w *wireTarget) close() {
	for _, c := range w.rpcs {
		c.Close()
	}
	for _, s := range w.servers {
		s.Close()
	}
}

// clientStats sums the transport counters of the daemon connections.
func (w *wireTarget) clientStats() rpc.ClientStats {
	var sum rpc.ClientStats
	for _, c := range w.rpcs {
		st := c.Stats()
		sum.Pending += st.Pending
		sum.Started += st.Started
		sum.Completed += st.Completed
		sum.Shed += st.Shed
		sum.FramesSent += st.FramesSent
		sum.BatchesSent += st.BatchesSent
		sum.BatchedCalls += st.BatchedCalls
		sum.MaxBatch = max(sum.MaxBatch, st.MaxBatch)
	}
	return sum
}

// handlerCounts sums the daemons' read and write handler dispatches.
func (w *wireTarget) handlerCounts() (calls, errs uint64) {
	for _, s := range w.servers {
		for _, m := range s.Stats().Methods {
			if m.Method == daemon.MethodRead || m.Method == daemon.MethodWrite {
				calls += m.Calls
				errs += m.Errors
			}
		}
	}
	return calls, errs
}

// poolTarget is the in-process path: an lmp.Pool and one striped buffer.
type poolTarget struct {
	pool *lmp.Pool
	buf  *lmp.Buffer
	from [callers]lmp.ServerID
}

func buildPool(sp *spec, noTrace bool) (*poolTarget, error) {
	cfg := lmp.Config{}
	for i := 0; i < sp.lenders; i++ {
		cfg.Servers = append(cfg.Servers, lmp.ServerConfig{
			Name: fmt.Sprintf("s%d", i), Capacity: sp.lendBytes + 16<<20, SharedBytes: sp.lendBytes,
		})
	}
	p := &poolTarget{}
	for c := range p.from {
		p.from[c] = lmp.ServerID(c) // callers issue as servers 0 and 1
	}
	if sp.compute {
		cfg.Servers = append(cfg.Servers, lmp.ServerConfig{Name: "compute", Capacity: 64 << 20})
		for c := range p.from {
			p.from[c] = lmp.ServerID(sp.lenders)
		}
	}
	opts := []lmp.Option{lmp.WithPlacement(lmp.Striped)}
	if sp.cache {
		opts = append(opts, lmp.WithLocalCache(lmp.CacheConfig{CapacityBytes: cacheBytes, PageSize: cachePage}))
	}
	if noTrace {
		opts = append(opts, lmp.WithTracing(lmp.TraceConfig{Disabled: true}))
	}
	var err error
	if p.pool, err = lmp.New(cfg, opts...); err != nil {
		return nil, err
	}
	if p.buf, err = p.pool.Alloc(sp.bufBytes, 0); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *poolTarget) read(_ context.Context, caller int, b []byte, off int64) error {
	return p.pool.Read(p.from[caller], p.buf.Addr()+lmp.Logical(off), b)
}

func (p *poolTarget) write(_ context.Context, caller int, b []byte, off int64) error {
	return p.pool.Write(p.from[caller], p.buf.Addr()+lmp.Logical(off), b)
}

func (p *poolTarget) close() {}
