// Package daemon implements the live distributed mode: each server runs
// an lmpd daemon exporting its shared region over TCP (the functional
// stand-in for CXL.mem transactions), and clients compose the daemons
// into a pool with a client-side coarse map — the same two-step
// addressing as the in-process runtime. Computation shipping sends a
// named kernel to the daemon owning the data and returns only the partial
// result.
package daemon

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/lmp-project/lmp/internal/memnode"
	"github.com/lmp-project/lmp/internal/rpc"
	"github.com/lmp-project/lmp/internal/telemetry"
)

// RPC method numbers.
const (
	MethodInfo byte = iota + 1
	MethodAlloc
	MethodFree
	MethodRead
	MethodWrite
	MethodSum
	MethodResize
	_ // 8 was the per-page heat query; retired, never reused
	MethodStats
)

// Info describes a daemon's shared region.
type Info struct {
	Name     string
	Capacity int64
	Shared   int64
	InUse    int64
}

// Server is one lmpd instance: a shared region served over TCP. The node
// is the lender — it owns the region's allocator, boundary and scrubbing —
// and the alloc, free and resize handlers are its wire codec.
type Server struct {
	name string
	node *memnode.Node
	rpc  *rpc.Server

	metrics *telemetry.Registry
	tracer  *telemetry.Tracer
	slowLog atomic.Pointer[func(telemetry.Span)]

	// Both sampled from the node by Metrics.
	dropped  *telemetry.Gauge // bytes scrubbed and handed back to the host, ever
	resident *telemetry.Gauge

	mu   sync.Mutex
	addr string
}

// NewServer builds a daemon for a server with the given DRAM capacity and
// initial shared-region size (rounded down to pages).
func NewServer(name string, capacity, shared int64) (*Server, error) {
	node, err := memnode.New(name, capacity, shared)
	if err != nil {
		return nil, err
	}
	s := &Server{
		name:    name,
		node:    node,
		rpc:     rpc.NewServer(),
		metrics: telemetry.NewRegistry(),
	}
	s.dropped = s.metrics.Gauge("memnode.dropped_bytes_total")
	s.resident = s.metrics.Gauge("memnode.resident_bytes")
	s.tracer = telemetry.NewTracer(telemetry.TracerConfig{OnSlowOp: s.logSlowOp})
	s.rpc.SetTracer(s.tracer)
	s.rpc.SetRegistry(s.metrics)
	s.register()
	return s, nil
}

// logSlowOp is the tracer's slow-op hook: it hands the span to the log
// hook OnSlowOp installed, if any.
func (s *Server) logSlowOp(sp telemetry.Span) {
	if f := s.slowLog.Load(); f != nil {
		(*f)(sp)
	}
}

// OnSlowOp installs fn to receive every handler span that crosses the
// slow-op threshold — lmpd logs them. A nil fn uninstalls.
func (s *Server) OnSlowOp(fn func(telemetry.Span)) {
	if fn == nil {
		s.slowLog.Store(nil)
		return
	}
	s.slowLog.Store(&fn)
}

// SetSlowOpNS adjusts the slow-op threshold (default 10ms; negative
// disables).
func (s *Server) SetSlowOpNS(ns int64) { s.tracer.SetSlowOpNS(ns) }

// Metrics exposes the daemon's telemetry registry (rpc.requests,
// rpc.errors, memnode.*) for the Prometheus endpoint. The memnode gauges
// are sampled here, so call it once per scrape.
func (s *Server) Metrics() *telemetry.Registry {
	s.resident.Set(s.node.ResidentBytes())
	s.dropped.Set(int64(s.node.DroppedBytes()))
	return s.metrics
}

// TraceSpans returns the daemon's retained request spans, oldest first:
// traced requests, and untraced ones that failed or were slow.
func (s *Server) TraceSpans() []telemetry.Span { return s.tracer.Spans() }

// ServerStats is the daemon's typed observability snapshot, served as
// JSON by lmpd's /stats endpoint. SpansPublished counts request spans
// ever kept: traced requests, and untraced ones that failed or were slow.
// An untraced request that succeeds under the slow-op threshold counts in
// Methods only.
type ServerStats struct {
	Name           string            `json:"name"`
	Capacity       int64             `json:"capacity"`
	Shared         int64             `json:"shared"`
	InUse          int64             `json:"in_use"`
	ResidentBytes  int64             `json:"resident_bytes"` // of the node's memory, as the host accounts it; 0 where unknown
	DroppedBytes   uint64            `json:"dropped_bytes"`  // scrubbed and handed back by free and shrink
	Methods        []rpc.MethodStats `json:"methods"`
	SlowOps        uint64            `json:"slow_ops"`
	SpansPublished uint64            `json:"spans_published"`
}

// Stats captures the daemon's typed snapshot.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Name:           s.name,
		Capacity:       s.node.Capacity(),
		Shared:         s.node.SharedBytes(),
		InUse:          s.node.InUse(),
		ResidentBytes:  s.node.ResidentBytes(),
		DroppedBytes:   s.node.DroppedBytes(),
		Methods:        s.rpc.Stats(),
		SlowOps:        s.tracer.SlowOps(),
		SpansPublished: s.tracer.Published(),
	}
}

// Listen starts serving on addr (":0" picks a port) and returns the bound
// address.
func (s *Server) Listen(addr string) (string, error) {
	bound, err := s.rpc.Listen(addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.addr = bound
	s.mu.Unlock()
	return bound, nil
}

// Close stops the daemon.
func (s *Server) Close() error { return s.rpc.Close() }

// wireMethod is one entry of the daemon's wire surface: a method served
// by a handler, or — for a read and a write, whose bulk bytes leave from
// or land in lent memory — by a receiver on the connection's read
// goroutine.
type wireMethod struct {
	id      byte
	name    string // span and Stats label
	handler rpc.Handler
	receive rpc.Receiver
	headLen int // the receiver's head
}

// The receivers' heads: a read's is the 8-byte offset and the 4-byte
// length of the range it asks for, a write's the 8-byte offset the bytes
// after it land at.
const (
	readHead  = 12
	writeHead = 8
)

// wireMethods lists every method the daemon serves. Each handler or
// receiver decodes bytes that came off a socket: FuzzDaemonHandlers walks
// this table.
func (s *Server) wireMethods() []wireMethod {
	return []wireMethod{
		{id: MethodInfo, name: "rpc.info", handler: s.handleInfo},
		{id: MethodAlloc, name: "rpc.alloc", handler: s.handleAlloc},
		{id: MethodFree, name: "rpc.free", handler: s.handleFree},
		{id: MethodRead, name: "rpc.read", receive: s.receiveRead, headLen: readHead},
		{id: MethodWrite, name: "rpc.write", receive: s.receiveWrite, headLen: writeHead},
		{id: MethodSum, name: "rpc.sum", handler: s.handleSum},
		{id: MethodResize, name: "rpc.resize", handler: s.handleResize},
		{id: MethodStats, name: "rpc.stats", handler: s.handleStats},
	}
}

func (s *Server) register() {
	for _, m := range s.wireMethods() {
		if m.receive != nil {
			s.rpc.HandleReceive(m.id, m.headLen, m.receive)
		} else {
			s.rpc.Handle(m.id, m.handler)
		}
		s.rpc.NameMethod(m.id, m.name)
	}
}

// handleStats returns the daemon's typed snapshot as JSON — the wire
// format doubles as the /stats endpoint payload, so lmpctl and HTTP
// scrapers see the same document.
func (s *Server) handleStats(_ []byte) ([]byte, error) {
	return json.Marshal(s.Stats())
}

func (s *Server) handleInfo(_ []byte) ([]byte, error) {
	out := make([]byte, 24+len(s.name))
	binary.BigEndian.PutUint64(out[0:8], uint64(s.node.Capacity()))
	binary.BigEndian.PutUint64(out[8:16], uint64(s.node.SharedBytes()))
	binary.BigEndian.PutUint64(out[16:24], uint64(s.node.InUse()))
	copy(out[24:], s.name)
	return out, nil
}

func (s *Server) handleAlloc(p []byte) ([]byte, error) {
	if len(p) != 8 {
		return nil, fmt.Errorf("daemon: alloc payload %d bytes", len(p))
	}
	off, err := s.node.Alloc(int64(binary.BigEndian.Uint64(p)))
	if err != nil {
		return nil, err
	}
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, uint64(off))
	return out, nil
}

func (s *Server) handleFree(p []byte) ([]byte, error) {
	if len(p) != 8 {
		return nil, fmt.Errorf("daemon: free payload %d bytes", len(p))
	}
	_, err := s.node.Free(int64(binary.BigEndian.Uint64(p)))
	return nil, err
}

// checkShared bounds a remote access by the shared region, read from the
// node without a lock: this runs on every wire read and write. off and n
// come off the wire: the comparison must not add them (off = MaxInt64-5,
// n = 10 wraps negative and would pass).
func (s *Server) checkShared(off, n int64) error {
	if size := s.node.SharedBytes(); off < 0 || n < 0 || n > size-off {
		return fmt.Errorf("daemon: access of %d bytes at %d outside shared region of %d", n, off, size)
	}
	return nil
}

// checkReply bounds the bytes one read or sum request may ask for by
// what a reply frame can carry. The server checks what it is sent, so an
// oversized request gets an ordinary error reply instead of an allocation
// the codec then refuses to send; rangeHead checks what it encodes.
func checkReply(n int64) error {
	if n < 0 || n > rpc.MaxPayload {
		return fmt.Errorf("daemon: request for %d bytes: a reply can carry 0 to %d", n, rpc.MaxPayload)
	}
	return nil
}

// receiveRead serves a read on the connection's read goroutine: head is
// the offset and the length, and the reply is a view of lent memory, which
// the connection's reply flusher writes out — the server copies nothing
// and takes no buffer. The view outlives this call, so the node must stay
// mapped until the flusher is done with it: the connection holds the
// rpc.Server, which holds this Receiver and so s and its node, until its
// flusher has exited. A read carries no bytes after its head.
func (s *Server) receiveRead(head []byte, _ io.Reader, n int) ([]byte, error) {
	if n != 0 {
		return nil, fmt.Errorf("daemon: read payload %d bytes", readHead+n)
	}
	off := int64(binary.BigEndian.Uint64(head[0:8]))
	length := int64(binary.BigEndian.Uint32(head[8:12]))
	if err := checkReply(length); err != nil {
		return nil, err
	}
	if err := s.checkShared(off, length); err != nil {
		return nil, err
	}
	return s.node.View(off, int(length))
}

// receiveWrite serves a write on the connection's read goroutine: head is
// the offset, and the n bytes body yields go straight into lent memory
// once the range is known to be shared.
func (s *Server) receiveWrite(head []byte, body io.Reader, n int) ([]byte, error) {
	off := int64(binary.BigEndian.Uint64(head))
	if err := s.checkShared(off, int64(n)); err != nil {
		return nil, err
	}
	return nil, s.node.WriteFrom(body, off, n)
}

// handleSum is the near-memory kernel: sum the little-endian uint64 words
// of [off, off+n) in place, over a view of lent memory, and return only
// the 8-byte result. It stays a Handler, on a goroutine of its own, so a
// long sum does not hold up the requests behind it on the connection.
func (s *Server) handleSum(p []byte) ([]byte, error) {
	if len(p) != 12 {
		return nil, fmt.Errorf("daemon: sum payload %d bytes", len(p))
	}
	off := int64(binary.BigEndian.Uint64(p[0:8]))
	n := int64(binary.BigEndian.Uint32(p[8:12]))
	if err := checkReply(n); err != nil {
		return nil, err
	}
	if err := s.checkShared(off, n); err != nil {
		return nil, err
	}
	buf, err := s.node.View(off, int(n))
	if err != nil {
		return nil, err
	}
	sum := sumWords(buf)
	runtime.KeepAlive(s.node) // buf is a view: the node stays mapped until the sum is done
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, math.Float64bits(sum))
	return out, nil
}

// sumWords is the sum kernel: the little-endian uint64 words of buf, and
// the bytes of a tail shorter than a word one by one.
func sumWords(buf []byte) float64 {
	var sum float64
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		sum += float64(binary.LittleEndian.Uint64(buf[i:]))
	}
	for ; i < len(buf); i++ {
		sum += float64(buf[i])
	}
	return sum
}

func (s *Server) handleResize(p []byte) ([]byte, error) {
	if len(p) != 8 {
		return nil, fmt.Errorf("daemon: resize payload %d bytes", len(p))
	}
	return nil, s.node.Resize(int64(binary.BigEndian.Uint64(p)))
}

// Client is a typed client for one daemon. It speaks through an
// rpc.Caller, so transports compose: a fault injector can be stacked
// between the typed layer and the TCP connection.
type Client struct {
	c rpc.Caller
}

// Dial connects to a daemon over TCP.
func Dial(addr string) (*Client, error) {
	c, err := rpc.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// WrapCaller builds a client over an arbitrary transport — typically a
// Dial'd connection wrapped in chaos injection. Nothing retries below the
// client: a transport fault reaches the caller as rpc.ErrTransient.
func WrapCaller(t rpc.Caller) *Client { return &Client{c: t} }

// Close tears down the underlying connection when the transport owns one
// (wrapped transports that are not closers are left to their owner).
func (c *Client) Close() error {
	if closer, ok := c.c.(interface{ Close() error }); ok {
		return closer.Close()
	}
	return nil
}

// Info fetches the daemon's region description.
func (c *Client) Info() (Info, error) {
	resp, err := c.c.Call(MethodInfo, nil)
	if err != nil {
		return Info{}, err
	}
	if len(resp) < 24 {
		return Info{}, fmt.Errorf("daemon: short info response")
	}
	return Info{
		Capacity: int64(binary.BigEndian.Uint64(resp[0:8])),
		Shared:   int64(binary.BigEndian.Uint64(resp[8:16])),
		InUse:    int64(binary.BigEndian.Uint64(resp[16:24])),
		Name:     string(resp[24:]),
	}, nil
}

// Alloc reserves n bytes in the daemon's shared region.
func (c *Client) Alloc(n int64) (int64, error) {
	req := make([]byte, 8)
	binary.BigEndian.PutUint64(req, uint64(n))
	resp, err := c.c.Call(MethodAlloc, req)
	if err != nil {
		return 0, err
	}
	if len(resp) != 8 {
		return 0, fmt.Errorf("daemon: alloc reply of %d bytes, want 8", len(resp))
	}
	return int64(binary.BigEndian.Uint64(resp)), nil
}

// Free releases an allocation.
func (c *Client) Free(off int64) error {
	req := make([]byte, 8)
	binary.BigEndian.PutUint64(req, uint64(off))
	_, err := c.c.Call(MethodFree, req)
	return err
}

// Read fetches n bytes at off.
func (c *Client) Read(off int64, n int) ([]byte, error) {
	return c.ReadCtx(nil, off, n)
}

// ReadCtx is Read with cancellation: a context that ends before the
// daemon responds fails the call with an error wrapping ctx.Err(),
// leaving the connection usable (the stale response is discarded).
func (c *Client) ReadCtx(ctx context.Context, off int64, n int) ([]byte, error) {
	if err := checkReply(int64(n)); err != nil {
		return nil, err
	}
	f := c.ReadAsync(ctx, off, make([]byte, n))
	p, err := f.WaitCtx(ctx)
	f.Release()
	return p, err
}

// rangeHead encodes the 12-byte (offset, length) head of a read or a sum
// request. A length no reply can carry is refused before anything is
// encoded: the head holds it in 32 bits, and 1<<32+10 would go out as 10.
func rangeHead(off int64, n int) (h [12]byte, err error) {
	if err := checkReply(int64(n)); err != nil {
		return h, err
	}
	binary.BigEndian.PutUint64(h[0:8], uint64(off))
	binary.BigEndian.PutUint32(h[8:12], uint32(n))
	return h, nil
}

// ReadAsync issues a read of len(dst) bytes at off without blocking for
// the response: the reply lands in dst (rpc.Future.Into), and the future
// resolves to dst. A reply of any other length fails the call with dst
// untouched. Any number of async calls may be in flight on one
// connection; the transport pipelines (and, for small requests, batches)
// them.
func (c *Client) ReadAsync(ctx context.Context, off int64, dst []byte) *rpc.Future {
	h, err := rangeHead(off, len(dst))
	if err != nil {
		return rpc.ResolvedFuture(nil, err)
	}
	return rpc.Async(c.c, ctx, MethodRead, h[:], nil).Into(dst)
}

// Write stores data at off.
func (c *Client) Write(off int64, data []byte) error {
	return c.WriteCtx(nil, off, data)
}

// WriteAsync issues a write without blocking for the acknowledgement. On
// a Dial'd client the request leaves from data itself (rpc.Async), so
// data must not change until the future has been waited on.
func (c *Client) WriteAsync(ctx context.Context, off int64, data []byte) *rpc.Future {
	var h [8]byte
	binary.BigEndian.PutUint64(h[:], uint64(off))
	return rpc.Async(c.c, ctx, MethodWrite, h[:], data)
}

// WriteCtx is Write with cancellation, with ReadCtx's semantics. A
// cancelled write may or may not have been applied by the daemon — the
// cancellation is client-side.
func (c *Client) WriteCtx(ctx context.Context, off int64, data []byte) error {
	f := c.WriteAsync(ctx, off, data)
	_, err := f.WaitCtx(ctx)
	f.Release()
	return err
}

// Sum ships the aggregation kernel: the daemon sums [off, off+n) locally.
func (c *Client) Sum(off int64, n int) (float64, error) {
	f := c.SumAsync(nil, off, n)
	defer f.Release()
	resp, err := f.Wait()
	if err != nil {
		return 0, err
	}
	if len(resp) != 8 {
		return 0, fmt.Errorf("daemon: sum reply of %d bytes, want 8", len(resp))
	}
	return math.Float64frombits(binary.BigEndian.Uint64(resp)), nil
}

// SumAsync ships the aggregation kernel without blocking; the future
// resolves to the daemon's encoded partial sum.
func (c *Client) SumAsync(ctx context.Context, off int64, n int) *rpc.Future {
	h, err := rangeHead(off, n)
	if err != nil {
		return rpc.ResolvedFuture(nil, err)
	}
	return rpc.Async(c.c, ctx, MethodSum, h[:], nil)
}

// Stats fetches the daemon's typed observability snapshot.
func (c *Client) Stats() (ServerStats, error) {
	resp, err := c.c.Call(MethodStats, nil)
	if err != nil {
		return ServerStats{}, err
	}
	var st ServerStats
	if err := json.Unmarshal(resp, &st); err != nil {
		return ServerStats{}, fmt.Errorf("daemon: bad stats payload: %w", err)
	}
	return st, nil
}

// Resize moves the daemon's private/shared boundary.
func (c *Client) Resize(shared int64) error {
	req := make([]byte, 8)
	binary.BigEndian.PutUint64(req, uint64(shared))
	_, err := c.c.Call(MethodResize, req)
	return err
}
