// Package rpc is a minimal binary RPC layer over TCP used by the live
// (multi-process) LMP mode: lmpd servers expose shared-memory operations
// (read, write, migrate, ship) and peers call them through a multiplexed
// client. The transport is asynchronous: every call gets a tag (request
// id) in a per-connection pending-call table, so any number of calls
// share one TCP connection concurrently — CallAsyncCtx returns a Future,
// and the blocking Call is a shim that waits on one. Small frames queued
// while a write is in flight are packed back to back into one write (see
// batcher.go); each side reads every frame the same way, through a small
// per-connection read buffer, and routes it by tag.
//
// A payload that is read into a buffer is read into an ordinary slice,
// which the collector takes back: a Handler's request, and a reply whose
// caller named no destination. A data call takes no buffer on the
// client: its request leaves from the caller's bytes (Async), and a
// caller that wants its future back calls Future.Release when it is done
// with the result.
//
// Two kinds of call skip a buffer altogether: a reply whose caller named
// a destination (Future.Into) is read off the connection straight into
// it, and a request to a method registered with HandleReceive is handed
// to its Receiver as a reader over the connection, on the connection's
// read goroutine — the Receiver puts the bytes where they are going, or
// replies with a view of where they already are.
//
// Wire format: see frame.go. Error payloads carry a code byte naming the
// sentinel the handler error wrapped (ErrServerDead, ErrTransient), so
// errors.Is classification survives the wire instead of degrading to a
// raw string.
//
// A traced request carries the caller's span identity: when the caller's
// context holds a telemetry.SpanContext (see telemetry.ContextWithSpan),
// the client sets the request's trace flag and the server — if it has a
// tracer — records its handler span as a child of the caller's span, so
// one trace ID follows a logical operation across the process boundary
// no matter how its frames were packed. An untraced request is only
// timed, and kept as a root span if it failed or was slow.
package rpc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
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
// string. payload is the handler's to keep or to return as the reply;
// nothing else uses it.
//
// The server never recycles a reply: whatever a handler or a Receiver
// returns — its request, a static or shared slice, a view of the memory
// a read asks for — is sent and then left alone. The connection's
// flusher writes it after the handler has returned, so a reply that is a
// view must stay valid while the Server is serving: the connection holds
// the Server, and so whatever its handlers hold, until its flusher has
// exited, and Close returns only after that.
type Handler func(payload []byte) ([]byte, error)

// Receiver serves a method registered with HandleReceive, on the read
// goroutine of the connection the request came in on. head is the
// request's first headLen bytes; body yields the n bytes after them and
// nothing more, straight off the connection. A Receiver reads what it
// needs from body — typically all n bytes, into their final place — and
// returns the reply payload like a Handler. head is valid only until it
// returns, and it must not keep body. The server drains whatever the
// Receiver leaves unread, so an error returned before any byte was read
// still leaves the next frame parsable, and sends the reply only once the
// whole frame is in: a request cut short gets none. While it runs no other request of that
// connection is read: a Receiver must not block on anything but body. Its
// reply is written by the connection's flusher after it returns and is
// never recycled, so it may be memory that stays valid while the Server
// holds the Receiver, such as a view of the bytes a read asks for: the
// connection keeps the Server until its flusher has exited.
type Receiver func(head []byte, body io.Reader, n int) ([]byte, error)

// maxReceiveHead bounds HandleReceive's headLen: the head is read into
// per-connection scratch.
const maxReceiveHead = 64

// route is one method's registration: its name, and either a Handler or
// a Receiver with its head length.
type route struct {
	name    string
	h       Handler
	r       Receiver
	headLen int
}

// reporting is where a server reports: its tracer and the counters of
// its registry. Any of them may be nil.
type reporting struct {
	tracer             *telemetry.Tracer
	reqCount, errCount *telemetry.Counter
}

// Server dispatches incoming requests to registered handlers.
type Server struct {
	// mu serializes registration and guards the listener and the
	// connection set. A request takes no lock: routes and report are
	// replaced whole by the calls that change them (republish), and read
	// with one atomic load each.
	mu     sync.Mutex
	routes [256]atomic.Pointer[route]
	report atomic.Pointer[reporting]
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	calls [256]atomic.Uint64
	errs  [256]atomic.Uint64
}

// errBudgetSpent is the rejection for requests whose propagated deadline
// budget ran out before dispatch.
var errBudgetSpent = fmt.Errorf("rpc: deadline budget spent before dispatch: %w", ErrDeadlineExceeded)

// NewServer returns a server with no handlers.
func NewServer() *Server {
	s := &Server{conns: make(map[net.Conn]struct{})}
	s.report.Store(&reporting{})
	return s
}

// republish replaces *p, under s.mu, with a copy of it that f changed
// (a zero value when *p is nil).
func republish[T any](s *Server, p *atomic.Pointer[T], f func(*T)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var v T
	if old := p.Load(); old != nil {
		v = *old
	}
	f(&v)
	p.Store(&v)
}

// Handle registers h for method. Registering after Serve is allowed;
// re-registering replaces, including a HandleReceive registration.
func (s *Server) Handle(method byte, h Handler) {
	republish(s, &s.routes[method], func(rt *route) { rt.h, rt.r, rt.headLen = h, nil, 0 })
}

// HandleReceive registers r for method: the server reads the request's
// first headLen bytes and hands r the rest as a reader (see Receiver), so
// a request payload reaches its destination with no request buffer and
// no goroutine of its own. It is for methods whose request carries bulk
// bytes to be stored, such as a remote write, or whose reply is bulk
// bytes already in place, such as a remote read. A deadline budget spent
// on arrival is refused before any byte after the head is read; a request
// shorter than headLen gets an error reply; a connection that fails in
// the middle of a payload is closed, with no reply. headLen is at most 64.
// Registering replaces, including a Handle registration.
func (s *Server) HandleReceive(method byte, headLen int, r Receiver) {
	if headLen < 0 || headLen > maxReceiveHead {
		panic(fmt.Sprintf("rpc: receive head of %d bytes outside [0,%d]", headLen, maxReceiveHead))
	}
	republish(s, &s.routes[method], func(rt *route) { rt.h, rt.r, rt.headLen = nil, r, headLen })
}

// NameMethod labels method for spans and Stats; unnamed methods appear
// as "rpc.request".
func (s *Server) NameMethod(method byte, name string) {
	republish(s, &s.routes[method], func(rt *route) { rt.name = name })
}

// SetTracer makes the server record request spans into t, named by
// NameMethod. A traced request gets a span parented on the
// caller's. An untraced one is timed, and kept as a root span only when
// it failed or crossed t's slow-op threshold (Tracer.End). A nil
// tracer turns spans off.
func (s *Server) SetTracer(t *telemetry.Tracer) {
	republish(s, &s.report, func(rp *reporting) { rp.tracer = t })
}

// SetRegistry mirrors request and error totals into reg as the counters
// "rpc.requests" and "rpc.errors" (per-method detail stays in Stats).
func (s *Server) SetRegistry(reg *telemetry.Registry) {
	republish(s, &s.report, func(rp *reporting) {
		rp.reqCount = reg.Counter("rpc.requests")
		rp.errCount = reg.Counter("rpc.errors")
	})
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
	var out []MethodStats
	for m := 0; m < 256; m++ {
		var name string
		if rt := s.routes[m].Load(); rt != nil {
			name = rt.name
		}
		calls, errors := s.calls[m].Load(), s.errs[m].Load()
		if calls == 0 && errors == 0 && name == "" {
			continue
		}
		out = append(out, MethodStats{Method: byte(m), Name: name, Calls: calls, Errors: errors})
	}
	return out
}

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
		if err != nil || !s.serve(conn) {
			return
		}
	}
}

// serve registers conn, so that Close closes it, and serves it on a
// goroutine of its own. It reports false, with conn closed, once the
// server is closed.
func (s *Server) serve(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		conn.Close()
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	go s.serveConn(conn)
	return true
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	// Replies from handler goroutines queue on a per-connection batcher:
	// one flusher goroutine writes them, packing replies that complete
	// close together into one write. A reply-write failure closes the
	// connection (the read side below then winds the handler down).
	out := newBatcher(conn, func(error) { conn.Close() })
	defer func() {
		conn.Close()
		out.close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	cr := &connReader{}
	cr.body.r = bufio.NewReaderSize(conn, readBufSize)
	for {
		h, err := readHeader(cr.body.r, cr.scratch[:])
		if err != nil {
			return
		}
		if rt := s.routes[h.method].Load(); rt != nil && rt.r != nil {
			if !s.receive(cr, h, rt, out) {
				return // protocol violation, or the connection failed mid-payload
			}
			continue
		}
		payload, err := readPayload(cr.body.r, h.length)
		if err != nil {
			return
		}
		if !s.dispatch(h, payload, out) {
			return // protocol violation
		}
	}
}

// connReader is one server connection's read-side state, made once per
// connection and reused for every frame, so that receiving a request
// allocates nothing: scratch holds a frame header, then a request's
// metadata prefix and head; body reads the connection, and is the reader
// a Receiver gets.
type connReader struct {
	scratch [frameHeaderLen + budgetHeaderLen + traceHeaderLen + maxReceiveHead]byte
	body    bodyReader
}

// bodyReader reads the rest of one request's payload off the
// connection's read buffer r: n bytes, then io.EOF. A failure of the
// connection before the n bytes are in is kept in err (a short stream
// becomes io.ErrUnexpectedEOF): the frame cannot be finished, so it gets
// no reply and the connection ends.
type bodyReader struct {
	r   *bufio.Reader
	n   int
	err error
}

func (b *bodyReader) Read(p []byte) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	if b.n <= 0 {
		return 0, io.EOF
	}
	if len(p) > b.n {
		p = p[:b.n]
	}
	k, err := b.r.Read(p)
	b.n -= k
	if err != nil && b.n > 0 {
		b.fail(err)
		return k, b.err
	}
	return k, nil
}

// drain reads and drops what is left of the payload.
func (b *bodyReader) drain() {
	if b.n <= 0 || b.err != nil {
		return
	}
	k, err := b.r.Discard(b.n)
	if b.n -= k; b.n > 0 {
		b.fail(err)
	}
}

// fail records the connection's failure in the middle of the payload.
func (b *bodyReader) fail(err error) {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	b.err = err
}

// receive serves one request frame of a HandleReceive method: counters,
// span, budget check, the Receiver, the reply. A request shorter than the
// Receiver's head is refused without calling it. It returns false when
// the connection must end: a frame that is not a request or is too short
// for its flags' metadata prefix, or a read error before the frame's
// last byte — a frame that was cut gets no reply.
func (s *Server) receive(cr *connReader, h frameHeader, rt *route, out *batcher) bool {
	prefix := prefixLen(h.kind)
	if int(h.length) < prefix {
		return false
	}
	meta := cr.scratch[frameHeaderLen : frameHeaderLen+prefix]
	if _, err := io.ReadFull(cr.body.r, meta); err != nil {
		return false
	}
	budget, sc, _, ok := decodePrefix(h.kind, meta)
	if !ok {
		return false
	}
	arrived := arrival(budget)
	body := &cr.body
	body.n, body.err = int(h.length)-prefix, nil
	n := body.n
	var head []byte
	if n >= rt.headLen {
		head = cr.scratch[frameHeaderLen+prefix:][:rt.headLen]
		if _, err := io.ReadFull(body, head); err != nil {
			return false
		}
		n -= rt.headLen
	}
	rp := s.count(h.method)
	sp := beginSpan(rp.tracer, sc, rt.name)
	var resp []byte
	var herr error
	switch {
	case budgetSpent(budget, arrived):
		herr = errBudgetSpent
	case head == nil:
		herr = fmt.Errorf("rpc: method %d request of %d bytes is shorter than its %d-byte head", h.method, n, rt.headLen)
	default:
		resp, herr = rt.r(head, body, n)
	}
	kind, resp := s.finish(h.method, rp, &sp, resp, herr)
	if body.drain(); body.err != nil {
		return false
	}
	// A failed enqueue means the connection is gone: the read loop ends
	// on its next read.
	_ = out.enqueue(sendEntry{kind: kind, method: h.method, id: h.id, payload: resp})
	return true
}

// count counts one request of method and returns the reporting it was
// counted under, which the request's span and error use too.
func (s *Server) count(method byte) *reporting {
	rp := s.report.Load()
	s.calls[method].Add(1)
	if rp.reqCount != nil {
		rp.reqCount.Inc()
	}
	return rp
}

// beginSpan starts a request's span when the server has a tracer: a
// child of the caller's span for a traced request, and for an untraced
// one only a start time, which finish keeps as a root span if the
// request fails or is slow.
func beginSpan(tracer *telemetry.Tracer, sc telemetry.SpanContext, name string) (sp telemetry.Span) {
	if tracer == nil {
		return sp
	}
	if name == "" {
		name = "rpc.request"
	}
	if sc.Traced() {
		return tracer.Begin(sc, name)
	}
	return telemetry.Span{Op: name, Server: -1, Start: tracer.Now()}
}

// finish turns a handler's or a Receiver's result into its reply frame's
// kind and payload, counts an error, and ends the request's span.
func (s *Server) finish(method byte, rp *reporting, sp *telemetry.Span, resp []byte, herr error) (byte, []byte) {
	if herr == nil && len(resp) > MaxPayload {
		// A reply the codec cannot frame fails this call, not the
		// connection and every call pipelined behind it.
		herr = fmt.Errorf("rpc: reply of %d bytes exceeds max %d", len(resp), MaxPayload)
	}
	kind := byte(kindResponse)
	if herr != nil {
		kind = kindError
		resp = encodeErrorPayload(herr)
		s.errs[method].Add(1)
		if rp.errCount != nil {
			rp.errCount.Inc()
		}
	}
	if rp.tracer != nil {
		sp.Bytes = len(resp)
		sp.Err = herr != nil
		rp.tracer.End(sp)
	}
	return kind, resp
}

// arrival is a request's arrival time when it carries a deadline budget
// (nonzero), which budgetSpent measures from; a request without one is
// not timed.
func arrival(budget int64) time.Time {
	if budget == 0 {
		return time.Time{}
	}
	return time.Now()
}

// budgetSpent reports whether a request's propagated deadline budget ran
// out before the server got to it: it arrived at arrived with budget
// nanoseconds left (0 means the request carries no budget).
func budgetSpent(budget int64, arrived time.Time) bool {
	return budget != 0 && (budget <= 0 || time.Since(arrived).Nanoseconds() >= budget)
}

// serverCall is one Handle request, from dispatch until its reply is
// queued.
type serverCall struct {
	s   *Server
	out *batcher

	method  byte
	id      uint64
	budget  int64
	arrived time.Time
	sc      telemetry.SpanContext

	rt *route
	rp *reporting

	// payload is the request behind its metadata prefix, in the slice
	// readPayload filled.
	payload []byte
}

// unrouted is the route of a method nobody registered: it has no handler.
var unrouted route

// dispatch validates one request frame, read whole into frame, and runs
// its handler in a goroutine, queueing the reply on out. It returns false
// on a protocol violation (non-request kind, payload shorter than its
// flags' metadata prefix).
func (s *Server) dispatch(h frameHeader, frame []byte, out *batcher) bool {
	budget, sc, payload, ok := decodePrefix(h.kind, frame)
	if !ok {
		return false
	}
	c := serverCall{s: s, out: out, method: h.method, id: h.id, budget: budget, arrived: arrival(budget), sc: sc, payload: payload}
	if c.rt = s.routes[h.method].Load(); c.rt == nil {
		c.rt = &unrouted
	}
	c.rp = s.count(h.method)
	s.wg.Add(1)
	go c.run()
	return true
}

// run is one request's goroutine: budget check, handler, reply enqueue.
func (c serverCall) run() {
	s := c.s
	defer s.wg.Done()
	sp := beginSpan(c.rp.tracer, c.sc, c.rt.name)
	var resp []byte
	var herr error
	switch {
	case budgetSpent(c.budget, c.arrived):
		// The propagated deadline budget was spent before this request
		// reached dispatch (queueing behind slow peers or a long accept
		// backlog): reject without running the handler, so an overloaded
		// server stops burning work the caller has already given up on.
		herr = errBudgetSpent
	case c.rt.h == nil:
		herr = fmt.Errorf("rpc: no handler for method %d", c.method)
	default:
		resp, herr = c.rt.h(c.payload)
	}
	kind, resp := s.finish(c.method, c.rp, &sp, resp, herr)
	// A failed enqueue means the connection is gone; the reply is dropped.
	_ = c.out.enqueue(sendEntry{kind: kind, method: c.method, id: c.id, payload: resp})
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
	term    error // terminal send/receive failure; new calls fail fast
	closed  bool
}

// ClientStats is a point-in-time snapshot of one client's transport
// counters — the leak check surface for the stress suite: after every
// issued call resolves, Pending is zero and Completed equals Started.
// Shed always reads 0: the client sheds nothing (admission is the pool's,
// Config.Tail.AdmissionLimit). It stays because the benchmark harness
// reports it.
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
	// hdr is the read loop's frame-header scratch.
	hdr [frameHeaderLen]byte
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
// unusable, so in-flight and future calls fail with ErrTransient.
func (c *Client) sendFailed(err error) {
	c.failAll(fmt.Errorf("rpc: send failed: %w: %w", ErrTransient, err), nil)
}

// connLost is the error the calls of a connection that failed under the
// read loop get: the connection is gone, so what became of them is
// unknown.
func connLost(err error) error {
	return fmt.Errorf("rpc: connection lost: %w: %w", ErrTransient, err)
}

// readLoop reads each reply's header first and takes the call it
// answers, so that it knows where the payload goes before reading it: a
// reply of exactly the length of the call's destination (Future.Into) is
// read straight into it; anything else goes to a new slice. A call
// taken this way is completed by the loop even if the connection fails
// mid-payload, so a waiter whose context ends while its reply streams in
// waits for that frame, and nothing writes to a destination after its
// waiter has returned.
func (c *Client) readLoop() {
	defer close(c.readDone)
	br := bufio.NewReaderSize(c.conn, readBufSize)
	for {
		h, err := readHeader(br, c.hdr[:])
		if err != nil {
			c.failAll(connLost(err), nil)
			return
		}
		if h.kind != kindResponse && h.kind != kindError {
			// Unknown kind: fail the addressed call (if any); the stream
			// itself is still framed, so keep reading.
			if _, err := br.Discard(int(h.length)); err != nil {
				c.failAll(connLost(err), nil)
				return
			}
			if f, _, _ := c.takePending(h.id); f != nil {
				f.complete(nil, fmt.Errorf("rpc: bad frame kind %d", h.kind))
			}
			continue
		}
		f, dst, into := c.takePending(h.id)
		if into && h.kind == kindResponse && int(h.length) == len(dst) {
			if _, err := io.ReadFull(br, dst); err != nil {
				c.failAll(connLost(err), f)
				return
			}
			f.landed = true
			f.complete(dst, nil)
			continue
		}
		payload, err := readPayload(br, h.length)
		if err != nil {
			c.failAll(connLost(err), f)
			return
		}
		c.deliver(f, into, dst, h, payload)
	}
}

// deliver resolves f, the call taken for the reply h (nil if the id was
// not pending: a cancelled or failed call leaves a stale id behind, and
// its late reply is dropped here), with the payload readPayload read. A
// response to a call without a destination resolves to the payload
// itself; a reply that a destination could take was read into it, so one
// that reaches here with a destination has the wrong length.
func (c *Client) deliver(f *Future, into bool, dst []byte, h frameHeader, payload []byte) {
	switch {
	case f == nil:
	case h.kind != kindResponse:
		f.complete(nil, decodeRemoteError(h.method, payload))
	case into:
		f.complete(nil, errReplyLength(len(payload), len(dst)))
	default:
		f.complete(payload, nil)
	}
}

// takePending removes and returns the future registered under id, or nil
// if the id is unknown (already taken, cancelled, or never registered),
// with the destination Into gave it if Into came first (into says so).
// Whoever takes the future completes it — that linearizes resolution.
func (c *Client) takePending(id uint64) (f *Future, dst []byte, into bool) {
	c.pt.Lock()
	f = c.pt.m[id]
	if f != nil {
		delete(c.pt.m, id)
		c.pt.taken++
		dst, into = f.dst, f.into
	}
	c.pt.Unlock()
	return f, dst, into
}

// failAll resolves every pending call with err — and taken, a call the
// read loop took before the connection failed under it, if not nil — and
// makes future calls fail fast. When the client was explicitly closed,
// the calls fail with the ErrClosed-wrapping error instead, whatever
// triggered the teardown first — the contract is that Close fails
// waiters with an error satisfying errors.Is(err, ErrClosed).
func (c *Client) failAll(err error, taken *Future) {
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
	if taken != nil {
		taken.complete(nil, err)
	}
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
	c.startCall(ctx, method, nil, payload, f)
	p, err := f.WaitCtx(ctx)
	putFuture(f)
	return p, err
}

// CallAsyncCtx issues a call without blocking and returns its future.
// ctx may be nil; otherwise its span identity (if any) rides with the
// request, and the returned future's WaitCtx honours the same context.
// The future is owned by the caller and must be waited on by exactly one
// goroutine, which may then Release it.
func (c *Client) CallAsyncCtx(ctx context.Context, method byte, payload []byte) *Future {
	f := getFuture(c)
	c.startCall(ctx, method, nil, payload, f)
	return f
}

// startCall registers f in the pending table and queues the request
// frame, whose payload is head (at most headMax bytes, copied into the
// entry) followed by body (which the entry references). It reports
// whether the frame was queued. Fast-fail paths (cancelled context,
// exhausted deadline budget, closed or failed client) complete f
// directly without touching the table.
func (c *Client) startCall(ctx context.Context, method byte, head, body []byte, f *Future) bool {
	// A context deadline becomes the call's remaining budget, propagated
	// on the wire so the server can refuse dispatch once it is spent. The
	// budget is read when the call starts: a caller re-issuing it sends
	// the shrunken remainder.
	var budget int64
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			f.complete(nil, cancelErr(err))
			return false
		}
		if dl, ok := ctx.Deadline(); ok {
			if budget = int64(time.Until(dl)); budget <= 0 {
				f.complete(nil, errBudgetSpent)
				return false
			}
		}
	}
	c.pt.Lock()
	if c.pt.closed {
		c.pt.Unlock()
		f.complete(nil, ErrClosed)
		return false
	}
	if err := c.pt.term; err != nil {
		c.pt.Unlock()
		f.complete(nil, err)
		return false
	}
	c.pt.nextID++
	id := c.pt.nextID
	f.id = id
	c.pt.m[id] = f
	c.pt.started++
	c.pt.Unlock()

	// A context carrying a span identity flags the request as traced,
	// extending the caller's trace across the wire; a deadline flags it
	// as carrying a budget. The two compose.
	kind := byte(kindRequest)
	sc := telemetry.SpanFromContext(ctx)
	if sc.Traced() {
		kind |= flagTraced
	}
	if budget > 0 {
		kind |= flagBudget
	}
	e := sendEntry{kind: kind, method: method, headLen: uint8(len(head)), id: id, budget: budget, sc: sc, payload: body}
	copy(e.head[:], head)
	if err := c.b.enqueue(e); err != nil {
		// The batcher is closed or the connection already failed; whoever
		// still owns the pending entry fails this call.
		if g, _, _ := c.takePending(id); g != nil {
			c.pt.Lock()
			term := c.pt.term
			c.pt.Unlock()
			if term == nil {
				term = ErrClosed
			}
			g.complete(nil, term)
		}
		return false
	}
	return true
}

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

// Stats snapshots the client's transport counters.
func (c *Client) Stats() ClientStats {
	c.pt.Lock()
	st := ClientStats{
		Pending:   len(c.pt.m),
		Started:   c.pt.started,
		Completed: c.pt.taken,
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
// goroutines have exited.
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
	c.failAll(errClientClosed, nil)
	return err
}
