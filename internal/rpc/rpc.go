// Package rpc is a minimal binary RPC layer over TCP used by the live
// (multi-process) LMP mode: lmpd servers expose shared-memory operations
// (read, write, migrate, ship) and peers call them through a multiplexed
// client. The transport is asynchronous: every call gets a tag (request
// id) in a per-connection pending-call table, so any number of calls
// share one TCP connection concurrently — CallAsyncCtx returns a Future,
// and the blocking Call is a shim that waits on one. Small frames queued
// while a write is in flight coalesce into one batch frame (see
// batcher.go); the receiver fans the sub-frames back out by tag.
//
// Payload buffers are recycled, not allocated per call: the request and
// the reply, on the client and on the server, come from one bounded pool
// and each has exactly one owner at a time — bufpool.go states who owns
// which buffer until when, and who gives it back. Handlers must not
// retain their payload; a caller that wants its future and buffers back
// in the pool calls Future.Release when it is done with the result.
//
// Wire format: see frame.go. Error payloads carry a code byte naming the
// sentinel the handler error wrapped (ErrServerDead, ErrTransient), so
// errors.Is classification survives the wire instead of degrading to a
// raw string.
//
// A traced request carries the caller's span identity: when the caller's
// context holds a telemetry.SpanContext (see telemetry.ContextWithSpan),
// the client sends kind 4 (bare or batched) and the server — if it has a
// tracer — records its handler span as a child of the caller's span, so
// one trace ID follows a logical operation across the process boundary
// no matter how its frames were packed.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lmp-project/lmp/internal/telemetry"
)

// ErrClosed reports use of a closed client or server.
var ErrClosed = errors.New("rpc: closed")

// Handler serves one method: it receives the request payload and returns
// the response payload. A returned error is delivered to the caller as a
// string. payload belongs to the server and is recycled after the reply
// has been written: a handler may return it (or any other slice) as the
// reply, but must not keep it past its return.
type Handler func(payload []byte) ([]byte, error)

// Server dispatches incoming requests to registered handlers.
type Server struct {
	mu       sync.Mutex
	handlers map[byte]Handler
	names    [256]string
	tracer   *telemetry.Tracer
	reqCount *telemetry.Counter
	errCount *telemetry.Counter
	bufStats *bufferGauges
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	// inflight finds the request a handler is serving from the payload
	// it was handed (keyed by the payload's first byte), which is how
	// ReplyBuffer ties a reply buffer to its request. An entry lives from
	// dispatch until the handler returns.
	inflight map[*byte]*serverCall

	calls   [256]atomic.Uint64
	errs    [256]atomic.Uint64
	batches atomic.Uint64 // batch frames received
}

// errBudgetSpent is the rejection for requests whose propagated deadline
// budget ran out before dispatch.
var errBudgetSpent = fmt.Errorf("rpc: deadline budget spent before dispatch: %w", ErrDeadlineExceeded)

// NewServer returns a server with no handlers.
func NewServer() *Server {
	return &Server{
		handlers: make(map[byte]Handler),
		conns:    make(map[net.Conn]struct{}),
		inflight: make(map[*byte]*serverCall),
	}
}

// Handle registers h for method. Registering after Serve is allowed;
// re-registering replaces.
func (s *Server) Handle(method byte, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// NameMethod labels method for spans and Stats; unnamed methods appear
// as "rpc.request".
func (s *Server) NameMethod(method byte, name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.names[method] = name
}

// SetTracer makes the server record one span per request into t, named
// by NameMethod and parented on the caller's span when the request was
// traced (kind 4). A nil tracer turns spans off.
func (s *Server) SetTracer(t *telemetry.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = t
}

// SetRegistry mirrors request and error totals into reg as the counters
// "rpc.requests" and "rpc.errors" (per-method detail stays in Stats),
// and the process-wide buffer pool's hits, misses and retained bytes as
// the gauges "rpc.buffer.*", refreshed as each request's buffers go
// back — so a scrape shows whether recycling works in this deployment.
func (s *Server) SetRegistry(reg *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reqCount = reg.Counter("rpc.requests")
	s.errCount = reg.Counter("rpc.errors")
	s.bufStats = &bufferGauges{
		hits:     reg.Gauge("rpc.buffer.hits"),
		misses:   reg.Gauge("rpc.buffer.misses"),
		retained: reg.Gauge("rpc.buffer.retained_bytes"),
	}
}

// bufferGauges is the registry's view of the buffer pool.
type bufferGauges struct {
	hits, misses, retained *telemetry.Gauge
}

func (g *bufferGauges) refresh() {
	g.hits.Set(int64(bufPool.hits.Load()))
	g.misses.Set(int64(bufPool.misses.Load()))
	g.retained.Set(bufPool.retained.Load())
}

// MethodStats is one method's dispatch totals.
type MethodStats struct {
	Method byte   `json:"method"`
	Name   string `json:"name"`
	Calls  uint64 `json:"calls"`
	Errors uint64 `json:"errors"`
}

// Stats reports per-method dispatch totals for every method that is
// named or has been called.
func (s *Server) Stats() []MethodStats {
	s.mu.Lock()
	names := s.names
	s.mu.Unlock()
	var out []MethodStats
	for m := 0; m < 256; m++ {
		calls, errors := s.calls[m].Load(), s.errs[m].Load()
		if calls == 0 && errors == 0 && names[m] == "" {
			continue
		}
		out = append(out, MethodStats{Method: byte(m), Name: names[m], Calls: calls, Errors: errors})
	}
	return out
}

// BatchesReceived reports how many batch frames this server has unpacked
// across all connections.
func (s *Server) BatchesReceived() uint64 { return s.batches.Load() }

// Listen starts accepting on addr ("host:port"; ":0" picks a free port)
// and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	// Replies from handler goroutines queue on a per-connection batcher:
	// one flusher goroutine writes them, coalescing replies that complete
	// close together into one batch frame. A reply-write failure closes
	// the connection (the read side below then winds the handler down).
	out := newBatcher(conn, func(error) { conn.Close() })
	defer func() {
		conn.Close()
		out.close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// A batched sub-frame's payload aliases the envelope, which goes back
	// to the pool right after the walk: dispatch copies it out.
	visit := func(sh frameHeader, sub []byte) error {
		if !s.dispatch(sh, sub, false, out) {
			return fmt.Errorf("rpc: bad sub-frame kind %d", sh.kind)
		}
		return nil
	}
	for {
		h, payload, err := readFrame(conn)
		if err != nil {
			return
		}
		if h.kind != kindBatch {
			if !s.dispatch(h, payload, true, out) {
				return // protocol violation
			}
			continue
		}
		s.batches.Add(1)
		err = decodeBatch(payload, h.id, visit)
		PutBuffer(payload)
		if err != nil {
			return // protocol violation
		}
	}
}

// serverCall is one request's state from dispatch until its reply frame
// has been written or dropped. It is pooled: dispatch fills one, its run
// method is the request's goroutine, and the reply batcher releases it.
type serverCall struct {
	s   *Server
	out *batcher

	method  byte
	id      uint64
	budget  int64
	arrived time.Time
	sc      telemetry.SpanContext

	handler  Handler
	name     string
	tracer   *telemetry.Tracer
	errCount *telemetry.Counter
	bufStats *bufferGauges

	// start is c.run bound once, when the struct is first made: `go
	// c.run()` would allocate that closure per request.
	start func()

	// buf is the pooled request buffer (bufpool.go, rule 1), payload the
	// handler's view of it behind the metadata prefix; reply is the
	// buffer the handler took from ReplyBuffer, if it did (rule 2).
	buf     []byte
	payload []byte
	reply   []byte
}

// serverCallPool has no New: run releases into the pool, so a New that
// binds run would be an initialization cycle. dispatch makes the misses.
var serverCallPool sync.Pool

// dispatch validates one request frame (bare or batched) and runs its
// handler in a goroutine, queueing the reply on out. It returns false on
// a protocol violation (non-request kind, payload shorter than the
// kind's metadata prefix). owned says frame is a readFrame buffer that
// now belongs to this request; a batched sub-frame aliases the envelope
// and is copied into a buffer of its own.
func (s *Server) dispatch(h frameHeader, frame []byte, owned bool, out *batcher) bool {
	budget, sc, payload, ok := decodePrefix(h.kind, frame)
	if !ok {
		if owned {
			PutBuffer(frame)
		}
		return false
	}
	c, _ := serverCallPool.Get().(*serverCall)
	if c == nil {
		c = new(serverCall)
		c.start = c.run
	}
	c.s, c.out = s, out
	c.method, c.id, c.budget, c.sc = h.method, h.id, budget, sc
	if budget != 0 {
		c.arrived = time.Now()
	}
	if owned {
		c.buf, c.payload = frame, payload
	} else {
		c.buf = GetBuffer(len(payload))
		copy(c.buf, payload)
		c.payload = c.buf
	}
	s.mu.Lock()
	c.handler = s.handlers[h.method]
	c.name = s.names[h.method]
	c.tracer = s.tracer
	reqCount := s.reqCount
	c.errCount, c.bufStats = s.errCount, s.bufStats
	if len(c.payload) > 0 {
		s.inflight[&c.payload[0]] = c
	}
	s.mu.Unlock()
	s.calls[h.method].Add(1)
	if reqCount != nil {
		reqCount.Inc()
	}
	s.wg.Add(1)
	go c.start()
	return true
}

// run is one request's goroutine: budget check, handler, reply enqueue.
// After the enqueue the call belongs to the reply batcher.
func (c *serverCall) run() {
	s := c.s
	defer s.wg.Done()
	var sp telemetry.Span
	if c.tracer != nil {
		name := c.name
		if name == "" {
			name = "rpc.request"
		}
		sp = c.tracer.Begin(c.sc, name)
	}
	var resp []byte
	var herr error
	switch {
	case c.budget != 0 && (c.budget <= 0 || time.Since(c.arrived).Nanoseconds() >= c.budget):
		// The propagated deadline budget was spent before this request
		// reached dispatch (queueing behind slow peers or a long accept
		// backlog): reject without running the handler, so an overloaded
		// server stops burning work the caller has already given up on.
		herr = errBudgetSpent
	case c.handler == nil:
		herr = fmt.Errorf("rpc: no handler for method %d", c.method)
	default:
		resp, herr = c.handler(c.payload)
		if herr == nil && len(resp) > MaxPayload {
			// A reply the codec cannot frame fails this call, not the
			// connection and every call pipelined behind it.
			herr = fmt.Errorf("rpc: reply of %d bytes exceeds max %d", len(resp), MaxPayload)
		}
	}
	if len(c.payload) > 0 {
		s.mu.Lock()
		delete(s.inflight, &c.payload[0])
		s.mu.Unlock()
	}
	kind := byte(kindResponse)
	if herr != nil {
		kind = kindError
		resp = encodeErrorPayload(herr)
		s.errs[c.method].Add(1)
		if c.errCount != nil {
			c.errCount.Inc()
		}
	}
	if c.tracer != nil {
		sp.Bytes = len(resp)
		sp.Err = herr != nil
		c.tracer.End(&sp)
	}
	if c.out.enqueue(sendEntry{kind: kind, method: c.method, id: c.id, payload: resp, call: c}) != nil {
		c.release() // the connection is gone; the reply is dropped here
	}
}

// release gives the request's buffers and the call itself back. It runs
// once, when the reply frame has been written or dropped: until then the
// reply may alias the request buffer (an echo handler returns it) or be
// the ReplyBuffer buffer.
//
//lmp:hotpath
func (c *serverCall) release() {
	PutBuffer(c.buf)
	PutBuffer(c.reply)
	if g := c.bufStats; g != nil {
		g.refresh()
	}
	*c = serverCall{start: c.start}
	serverCallPool.Put(c)
}

// ReplyBuffer returns a pooled buffer of length n for the reply to the
// request whose payload req a handler is serving, to be filled and
// returned (whole or resliced) by that handler. The server gives it back
// once the reply frame has been written, or when the handler fails
// instead. It is the only way a reply gets recycled: anything else a
// handler returns is sent and left alone. One buffer per request — a
// second call, or an empty or resliced req, gets an ordinary allocation
// that is never reused.
func (s *Server) ReplyBuffer(req []byte, n int) []byte {
	if len(req) > 0 {
		s.mu.Lock()
		c := s.inflight[&req[0]]
		s.mu.Unlock()
		if c != nil && c.reply == nil {
			c.reply = GetBuffer(n)
			return c.reply
		}
	}
	return make([]byte, n)
}

// Close stops the listener and all connections, waiting for in-flight
// handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// pendingTable is the per-connection tag table: request id -> future.
// Its mutex is the innermost lock of the transport — nothing may block
// or call back into the rpc layer while it is held (futures taken from
// the table are completed after release; the lmplint lockorder rule
// enforces the discipline).
type pendingTable struct {
	sync.Mutex
	m       map[uint64]*Future
	nextID  uint64
	started uint64
	taken   uint64
	shed    uint64 // calls rejected by admission control
	limit   int    // max in-flight calls; 0 = unbounded
	term    error  // terminal send/receive failure; new calls fail fast
	closed  bool
	dead    bool
}

// ClientStats is a point-in-time snapshot of one client's transport
// counters — the leak check surface for the stress suite: after every
// issued call resolves, Pending is zero and Completed equals Started.
// Shed counts admission-control rejections (never registered, so they
// appear in neither Started nor Completed).
type ClientStats struct {
	Pending      int    `json:"pending"`
	Started      uint64 `json:"calls_started"`
	Completed    uint64 `json:"calls_completed"`
	Shed         uint64 `json:"calls_shed"`
	FramesSent   uint64 `json:"frames_sent"`
	BatchesSent  uint64 `json:"batches_sent"`
	BatchedCalls uint64 `json:"batched_calls"`
	MaxBatch     uint64 `json:"max_batch"`
}

// Client is a multiplexing RPC client over one TCP connection. It is safe
// for concurrent use; any number of calls may be in flight at once.
type Client struct {
	conn net.Conn
	b    *batcher
	pt   pendingTable
	// readDone is closed when the read loop has returned: Close waits on
	// it, so nothing the client started outlives it.
	readDone chan struct{}
}

// SetAdmissionLimit bounds this client's in-flight calls: once limit
// calls are pending, further calls fail fast with an error wrapping
// ErrOverloaded instead of growing the pending table. limit <= 0 removes
// the bound. Shed calls count in ClientStats.Shed and never register, so
// they leave no pending entry behind.
func (c *Client) SetAdmissionLimit(limit int) {
	c.pt.Lock()
	if limit < 0 {
		limit = 0
	}
	c.pt.limit = limit
	c.pt.Unlock()
}

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn), nil
}

// newClient runs a client over an established connection: it starts the
// send batcher and the read loop, and Close closes conn.
func newClient(conn net.Conn) *Client {
	c := &Client{conn: conn, readDone: make(chan struct{})}
	c.pt.m = make(map[uint64]*Future)
	c.b = newBatcher(conn, c.sendFailed)
	go c.readLoop()
	return c
}

// sendFailed is the batcher's write-failure callback: the connection is
// unusable, so in-flight and future calls fail.
func (c *Client) sendFailed(err error) {
	c.failAll(fmt.Errorf("rpc: send failed: %w", err))
}

func (c *Client) readLoop() {
	defer close(c.readDone)
	deliverSub := func(sh frameHeader, sub []byte) error {
		switch sh.kind {
		case kindResponse, kindError:
			c.deliver(sh, sub, false)
			return nil
		default:
			return fmt.Errorf("rpc: bad batched reply kind %d", sh.kind)
		}
	}
	for {
		h, payload, err := readFrame(c.conn)
		if err != nil {
			c.failAll(fmt.Errorf("rpc: connection lost: %w", err))
			return
		}
		switch h.kind {
		case kindResponse, kindError:
			c.deliver(h, payload, true)
		case kindBatch:
			err := decodeBatch(payload, h.id, deliverSub)
			PutBuffer(payload)
			if err != nil {
				c.failAll(fmt.Errorf("rpc: bad batch frame: %w", err))
				c.conn.Close()
				return
			}
		default:
			// Unknown top-level kind: fail the addressed call (if any);
			// the stream itself is still framed, so keep reading.
			PutBuffer(payload)
			if f := c.takePending(h.id); f != nil {
				f.complete(nil, fmt.Errorf("rpc: bad frame kind %d", h.kind))
			}
		}
	}
}

// deliver resolves the future registered under h.id, if it is still
// pending (a cancelled or failed call leaves a stale id behind; its late
// reply is dropped here). owned says payload is a readFrame buffer this
// call now disposes of: a response hands it to the future (bufpool.go,
// rule 3), an error or a stale reply puts it straight back. A batched
// sub-reply aliases the envelope the read loop recycles after the walk,
// so a response is first copied into a pooled buffer of its own.
func (c *Client) deliver(h frameHeader, payload []byte, owned bool) {
	f := c.takePending(h.id)
	if f != nil && h.kind == kindResponse {
		if !owned {
			sub := payload
			payload = GetBuffer(len(sub))
			copy(payload, sub)
		}
		f.reply = payload
		f.complete(payload, nil)
		return
	}
	if f != nil {
		f.complete(nil, decodeRemoteError(h.method, payload))
	}
	if owned {
		PutBuffer(payload)
	}
}

// takePending removes and returns the future registered under id, or nil
// if the id is unknown (already taken, cancelled, or never registered).
// Whoever takes the future completes it — that linearizes resolution.
func (c *Client) takePending(id uint64) *Future {
	c.pt.Lock()
	f := c.pt.m[id]
	if f != nil {
		delete(c.pt.m, id)
		c.pt.taken++
	}
	c.pt.Unlock()
	return f
}

// failAll resolves every pending call with err and makes future calls
// fail fast. When the client was explicitly closed, pending calls fail
// with the ErrClosed-wrapping error instead, whatever triggered the
// teardown first — the contract is that Close fails waiters with an
// error satisfying errors.Is(err, ErrClosed).
func (c *Client) failAll(err error) {
	c.pt.Lock()
	if c.pt.closed {
		err = errClientClosed
	}
	if c.pt.term == nil {
		c.pt.term = err
	}
	fs := make([]*Future, 0, len(c.pt.m))
	for id, f := range c.pt.m {
		fs = append(fs, f)
		delete(c.pt.m, id)
		c.pt.taken++
	}
	c.pt.Unlock()
	// Complete outside the table lock: complete sends on the future's
	// channel, and the pending lock is the transport's innermost lock.
	for _, f := range fs {
		f.complete(nil, err)
	}
}

// errClientClosed is the error pending calls fail with on Close.
var errClientClosed = fmt.Errorf("rpc: client closed with call in flight: %w", ErrClosed)

// RemoteError is an error returned by a server handler. When the handler
// error wrapped a transport sentinel (ErrServerDead, ErrTransient), the
// sentinel is preserved across the wire and exposed through Unwrap, so
// errors.Is works end to end.
type RemoteError struct {
	Method  byte
	Message string

	sentinel error
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: method %d: %s", e.Method, e.Message)
}

// Unwrap exposes the sentinel the remote error was classified as, if any.
func (e *RemoteError) Unwrap() error { return e.sentinel }

// Call sends a request and blocks for its response.
func (c *Client) Call(method byte, payload []byte) ([]byte, error) {
	return c.CallCtx(nil, method, payload)
}

// CallCtx is Call with cancellation: when ctx ends before the response
// arrives, the call returns an error wrapping ctx.Err(), the pending
// entry is dropped, and the response — if it ever arrives — is
// discarded by the read loop as stale. A nil context never cancels.
func (c *Client) CallCtx(ctx context.Context, method byte, payload []byte) ([]byte, error) {
	f := getFuture(c)
	c.startCall(ctx, method, payload, f)
	p, err := f.WaitCtx(ctx)
	putFuture(f) // the reply buffer leaves with p: garbage, never reused
	return p, err
}

// CallAsyncCtx issues a call without blocking and returns its future.
// ctx may be nil; otherwise its span identity (if any) rides with the
// request, and the returned future's WaitCtx honours the same context.
// The future is owned by the caller and must be waited on by exactly one
// goroutine, which may then Release it.
func (c *Client) CallAsyncCtx(ctx context.Context, method byte, payload []byte) *Future {
	f := getFuture(c)
	c.startCall(ctx, method, payload, f)
	return f
}

// startCall registers f in the pending table and queues the request
// frame. Fast-fail paths (cancelled context, exhausted deadline budget,
// closed/dead/failed client, admission shed) complete f directly without
// touching the table.
func (c *Client) startCall(ctx context.Context, method byte, payload []byte, f *Future) {
	// A context deadline becomes the call's remaining budget, propagated
	// on the wire so the server can refuse dispatch once it is spent. The
	// budget is read when the call starts: a caller re-issuing it sends
	// the shrunken remainder.
	var budget int64
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			f.complete(nil, cancelErr(err))
			return
		}
		if dl, ok := ctx.Deadline(); ok {
			if budget = int64(time.Until(dl)); budget <= 0 {
				f.complete(nil, errBudgetSpent)
				return
			}
		}
	}
	c.pt.Lock()
	if c.pt.closed {
		c.pt.Unlock()
		f.complete(nil, ErrClosed)
		return
	}
	if c.pt.dead {
		c.pt.Unlock()
		f.complete(nil, errPeerDead)
		return
	}
	if err := c.pt.term; err != nil {
		c.pt.Unlock()
		f.complete(nil, err)
		return
	}
	if c.pt.limit > 0 && len(c.pt.m) >= c.pt.limit {
		c.pt.shed++
		c.pt.Unlock()
		f.complete(nil, errAdmissionShed)
		return
	}
	c.pt.nextID++
	id := c.pt.nextID
	f.id = id
	c.pt.m[id] = f
	c.pt.started++
	c.pt.Unlock()

	// A context carrying a span identity upgrades the frame to a traced
	// request, extending the caller's trace across the wire; a deadline
	// upgrades it to a budget request. Both compose (kind 7).
	kind := byte(kindRequest)
	sc := telemetry.SpanFromContext(ctx)
	switch {
	case sc.Traced() && budget > 0:
		kind = kindTracedBudgetRequest
	case sc.Traced():
		kind = kindTracedRequest
	case budget > 0:
		kind = kindBudgetRequest
	}
	if err := c.b.enqueue(sendEntry{kind: kind, method: method, id: id, budget: budget, sc: sc, payload: payload}); err != nil {
		// The batcher is closed or the connection already failed; whoever
		// still owns the pending entry fails this call.
		if g := c.takePending(id); g != nil {
			c.pt.Lock()
			term := c.pt.term
			c.pt.Unlock()
			if term == nil {
				term = ErrClosed
			}
			g.complete(nil, term)
		}
	}
}

// errPeerDead is the fail-fast error for calls against a dead-marked peer.
var errPeerDead = fmt.Errorf("rpc: peer marked dead: %w", ErrServerDead)

// errAdmissionShed is the fail-fast error for calls rejected at the
// admission limit. Preallocated: shedding happens exactly when the
// client is saturated, so the rejection path must not add pressure.
var errAdmissionShed = fmt.Errorf("rpc: admission limit reached: %w", ErrOverloaded)

// cancelErr wraps a context error for the rpc error contract: a passed
// deadline additionally classifies as ErrDeadlineExceeded, so callers
// can errors.Is-match budget exhaustion without caring whether the local
// context or the remote budget check tripped first.
func cancelErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("rpc: call cancelled: %w: %w", ErrDeadlineExceeded, err)
	}
	return fmt.Errorf("rpc: call cancelled: %w", err)
}

// MarkDead records a failure-detector verdict: the peer is crash-stopped.
// Every subsequent call fails fast with an error wrapping ErrServerDead
// without touching the network; in-flight calls fail the same way. The
// connection itself stays open (a misdetected peer can be UnmarkDead'd).
func (c *Client) MarkDead() {
	c.pt.Lock()
	c.pt.dead = true
	fs := make([]*Future, 0, len(c.pt.m))
	for id, f := range c.pt.m {
		fs = append(fs, f)
		delete(c.pt.m, id)
		c.pt.taken++
	}
	c.pt.Unlock()
	for _, f := range fs {
		f.complete(nil, errPeerDead)
	}
}

// UnmarkDead clears a MarkDead verdict.
func (c *Client) UnmarkDead() {
	c.pt.Lock()
	c.pt.dead = false
	c.pt.Unlock()
}

// Dead reports whether the peer is currently marked dead.
func (c *Client) Dead() bool {
	c.pt.Lock()
	defer c.pt.Unlock()
	return c.pt.dead
}

// Stats snapshots the client's transport counters.
func (c *Client) Stats() ClientStats {
	c.pt.Lock()
	st := ClientStats{
		Pending:   len(c.pt.m),
		Started:   c.pt.started,
		Completed: c.pt.taken,
		Shed:      c.pt.shed,
	}
	c.pt.Unlock()
	st.FramesSent = c.b.framesSent.Load()
	st.BatchesSent = c.b.batchesSent.Load()
	st.BatchedCalls = c.b.batchedSends.Load()
	st.MaxBatch = c.b.maxBatch.Load()
	return st
}

// Close tears down the connection; every pending call fails with an
// error wrapping ErrClosed, and every future call fails fast the same
// way. Close is idempotent and safe to race with in-flight calls: each
// future still resolves exactly once. When it returns the client's two
// goroutines have exited — the read loop's last act on a batch is to put
// the envelope back in the buffer pool, after the replies in it have
// already woken their callers.
func (c *Client) Close() error {
	c.pt.Lock()
	if c.pt.closed {
		c.pt.Unlock()
		return nil
	}
	c.pt.closed = true
	c.pt.Unlock()
	err := c.conn.Close() // unblocks the read loop and any in-flight write
	c.b.close()
	<-c.readDone
	c.failAll(errClientClosed)
	return err
}
