package chaos

import (
	"fmt"
	"net"
	"sync"
)

// Direction names one way through a proxied connection.
type Direction int

const (
	// ToServer carries the client's bytes to the server: its requests.
	ToServer Direction = iota
	// ToClient carries the server's bytes to the client: its replies.
	ToClient
)

var directionNames = [...]string{ToServer: "to-server", ToClient: "to-client"}

// Proxy is a loopback TCP proxy in front of one server: each connection
// it accepts is forwarded to the server's address by two pumps, one per
// direction, which carry whatever fault the injector armed. Clients dial
// Addr instead of the server.
type Proxy struct {
	in     *Injector
	server int
	target string
	ln     net.Listener
	wg     sync.WaitGroup // the accept loop and every pump

	// Guarded by in.mu.
	links  map[*link]struct{}
	armed  [2]*armedFault // by Direction; nil when none is armed
	closed bool
	idle   *sync.Cond // signalled as a link ends
}

// armedFault is a cut or stall waiting for left more bytes to pass.
type armedFault struct {
	kind FaultKind
	left int
}

// link is one proxied connection: the socket the proxy accepted from the
// client and the one it dialed to the server. Its fields are guarded by
// in.mu. A dead link forwards nothing more; gone is closed as it dies,
// which wakes a stalled pump.
type link struct {
	client, upstream *net.TCPConn
	dead             bool
	gone             chan struct{}
	pumps            int
}

// Proxy starts a proxy in front of server, listening on a loopback port
// and forwarding to target. It is reset while the injector holds server
// crashed (CrashAt, RestoreAt).
func (in *Injector) Proxy(server int, target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{in: in, server: server, target: target, ln: ln, links: make(map[*link]struct{})}
	p.idle = sync.NewCond(&in.mu)
	in.mu.Lock()
	in.proxies = append(in.proxies, p)
	in.mu.Unlock()
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr is the address clients dial to reach the server through p.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Arm arms a fault of kind FaultCut or FaultStall in direction dir: the
// seeded source draws k uniformly from [0, within), the trace records it,
// and the fault fires when a byte past the next k arrives that way, over
// whichever connection carries them. A cut forwards the k bytes, closes
// the client's socket and half-closes the server's: the server reads
// exactly the bytes forwarded, then end of stream, and the proxy drains
// its replies until it closes its end (a close with unread bytes would
// reset the connection and could discard bytes not yet delivered). A
// stall forwards the k bytes and then holds that direction until the
// connection is reset by a crash or Close, or cut the other way. Arming
// replaces the fault armed in that direction before. Arm returns k.
func (p *Proxy) Arm(kind FaultKind, dir Direction, within int) int {
	if kind != FaultCut && kind != FaultStall {
		panic(fmt.Sprintf("chaos: cannot arm %v on a connection", kind))
	}
	in := p.in
	in.mu.Lock()
	defer in.mu.Unlock()
	k := in.rng.Intn(within)
	p.armed[dir] = &armedFault{kind: kind, left: k}
	in.record(kind, p.server, fmt.Sprintf("%s k=%d", directionNames[dir], k))
	return k
}

// Wait blocks until every connection p has accepted is closed at both
// ends. After a cut it returns once the server has read all it was sent
// and closed its end.
func (p *Proxy) Wait() {
	p.in.mu.Lock()
	for len(p.links) > 0 {
		p.idle.Wait()
	}
	p.in.mu.Unlock()
}

// Close resets every connection, stops accepting and returns once all of
// p's goroutines have exited.
func (p *Proxy) Close() {
	p.in.mu.Lock()
	p.closed = true
	p.resetLocked()
	p.in.mu.Unlock()
	p.ln.Close()
	p.wg.Wait()
}

// resetLocked closes both sockets of every live connection and drops the
// armed faults, which were meant for them. Caller holds in.mu.
func (p *Proxy) resetLocked() {
	p.armed = [2]*armedFault{}
	for l := range p.links {
		l.kill()
		l.upstream.Close()
	}
}

// kill marks l dead, wakes a pump stalled on it and closes the client's
// socket. Caller holds in.mu.
func (l *link) kill() {
	if !l.dead {
		l.dead = true
		close(l.gone)
	}
	l.client.Close()
}

// accept takes each connection a client dials, dials the server for it
// and starts its pumps, or closes it if p is closed or its server is
// crashed.
func (p *Proxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.target)
		p.in.mu.Lock()
		if err != nil || p.closed || p.in.crashed[p.server] {
			c.Close()
			if up != nil {
				up.Close()
			}
		} else {
			l := &link{client: c.(*net.TCPConn), upstream: up.(*net.TCPConn), gone: make(chan struct{}), pumps: 2}
			p.links[l] = struct{}{}
			p.wg.Add(2)
			go p.pump(l, ToServer, l.client, l.upstream)
			go p.pump(l, ToClient, l.upstream, l.client)
		}
		p.in.mu.Unlock()
	}
}

// pump forwards src to dst, one direction of l, until reading src fails,
// then half-closes dst so the far side sees the end of the stream; the
// last of l's two pumps to end closes both sockets. Bytes read after l
// died are drained, not forwarded; a write that fails means the far side
// is gone, and the pump goes on draining.
func (p *Proxy) pump(l *link, dir Direction, src, dst *net.TCPConn) {
	defer p.wg.Done()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		fwd, fault := p.take(l, dir, n)
		if fwd > 0 {
			_, _ = dst.Write(buf[:fwd]) // a failed write: the far side is gone; keep draining
		}
		if fault != nil && fault.kind == FaultStall {
			<-l.gone
		} else if fault != nil {
			p.cut(l)
		}
		if err != nil {
			break
		}
	}
	_ = dst.CloseWrite() // fails only if dst is already closed
	p.in.mu.Lock()
	defer p.in.mu.Unlock()
	if l.pumps--; l.pumps == 0 {
		l.client.Close()
		l.upstream.Close()
		delete(p.links, l)
		p.idle.Broadcast()
	}
}

// take reports how many of the n bytes a pump of l just read in
// direction dir it forwards, and the armed fault that fires after them,
// if one does. A dead link forwards nothing.
func (p *Proxy) take(l *link, dir Direction, n int) (int, *armedFault) {
	p.in.mu.Lock()
	defer p.in.mu.Unlock()
	a := p.armed[dir]
	switch {
	case l.dead:
		return 0, nil
	case a == nil || n <= a.left:
		if a != nil {
			a.left -= n
		}
		return n, nil
	}
	p.armed[dir] = nil
	return a.left, a
}

// cut kills l once its k bytes are forwarded: the client's socket closes,
// and the server's is half-closed, so the server reads what was
// forwarded and then end of stream.
func (p *Proxy) cut(l *link) {
	p.in.mu.Lock()
	defer p.in.mu.Unlock()
	l.kill()
	_ = l.upstream.CloseWrite() // fails only if a crash closed it first
}
