package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// The receive wall: a HandleReceive method gets its request as a reader
// over the connection, on the connection's read goroutine. These tests pin
// what the server does around the Receiver: the budget check before any
// byte, the drain after it, the short-head refusal, and where each
// request's bytes end up.

const methStore = 20

// memStore is a Receiver's destination: head is an 8-byte offset into
// mem, and the body lands at it. An offset whose range does not fit is
// refused before a byte is read.
type memStore struct {
	mu    sync.Mutex
	mem   []byte
	calls int
}

func (m *memStore) receive(head []byte, body io.Reader, n int) ([]byte, error) {
	off := int(binary.BigEndian.Uint64(head))
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls++
	if off < 0 || n > len(m.mem)-off {
		return nil, fmt.Errorf("store of %d bytes at %d outside %d", n, off, len(m.mem))
	}
	_, err := io.ReadFull(body, m.mem[off:off+n])
	return nil, err
}

func (m *memStore) bytes(off, n int) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.mem[off:off+n]...)
}

func startStoreServer(t *testing.T, size int) (*memStore, string) {
	t.Helper()
	m := &memStore{mem: make([]byte, size)}
	s := NewServer()
	s.HandleReceive(methStore, 8, m.receive)
	s.Handle(methEcho, func(p []byte) ([]byte, error) { return p, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return m, addr
}

// storeRequest is a methStore payload: the offset, then the bytes.
func storeRequest(off int, data []byte) []byte {
	return append(binary.BigEndian.AppendUint64(nil, uint64(off)), data...)
}

// readReplies reads frames off conn until it has the replies to n
// requests, and returns each one's error, nil for a response, by id.
func readReplies(t *testing.T, conn net.Conn, n int) map[uint64]error {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	out := map[uint64]error{}
	for len(out) < n {
		h, p, err := readFrame(conn)
		if err != nil {
			t.Fatalf("after %d of %d replies: %v", len(out), n, err)
		}
		out[h.id] = nil
		if h.kind != kindResponse {
			out[h.id] = decodeRemoteError(h.method, p)
		}
	}
	return out
}

// TestReceiveSpentBudgetLandsNothing: a request whose deadline budget is
// spent when it arrives is refused before the Receiver sees it, written
// alone or packed, and its bytes go nowhere; the request behind it on the same
// connection is served.
func TestReceiveSpentBudgetLandsNothing(t *testing.T) {
	const n = 1000
	m, addr := startStoreServer(t, 4*n)
	conn := rawDial(t, addr)
	spent := func(id uint64, off int) sendEntry {
		return sendEntry{kind: kindRequest | flagBudget, method: methStore, id: id, budget: -1, payload: storeRequest(off, bytes.Repeat([]byte{0x77}, n))}
	}
	fresh := func(id uint64, off int) sendEntry {
		return sendEntry{kind: kindRequest, method: methStore, id: id, payload: storeRequest(off, bytes.Repeat([]byte{0x11}, n))}
	}
	for _, e := range []sendEntry{spent(1, 0), fresh(2, n)} {
		if err := writeFrame(conn, &e); err != nil {
			t.Fatal(err)
		}
	}
	if err := (&batcher{w: conn}).writeBatch([]sendEntry{spent(3, 2*n), fresh(4, 3*n)}); err != nil {
		t.Fatal(err)
	}
	replies := readReplies(t, conn, 4)
	for _, id := range []uint64{1, 3} {
		if err := replies[id]; !errors.Is(err, ErrDeadlineExceeded) {
			t.Errorf("request %d with a spent budget: %v, want ErrDeadlineExceeded", id, err)
		}
	}
	for _, id := range []uint64{2, 4} {
		if err := replies[id]; err != nil {
			t.Errorf("request %d behind it: %v", id, err)
		}
	}
	for _, r := range []struct {
		off  int
		fill byte
	}{{0, 0}, {n, 0x11}, {2 * n, 0}, {3 * n, 0x11}} {
		if got := m.bytes(r.off, n); !bytes.Equal(got, bytes.Repeat([]byte{r.fill}, n)) {
			t.Errorf("bytes at %d are not all %#x", r.off, r.fill)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.calls != 2 {
		t.Errorf("the Receiver ran %d times, want 2: a spent request reached it", m.calls)
	}
}

// TestReceiverErrorLeavesNextFrameParsable: a Receiver that refuses a
// request before reading any of it, and a request too short for the head,
// leave the connection in step — the server drains what was not read, so
// each pipelined request behind them, packed, alone or vectored, is served
// and lands where it says.
func TestReceiverErrorLeavesNextFrameParsable(t *testing.T) {
	const size = 256 << 10
	m, addr := startStoreServer(t, 4*size)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, n := range []int{100, batchEntryMax + 100, frameCoalesceMax + 1000} {
		for round := 0; round < 3; round++ {
			data := bytes.Repeat([]byte{byte(n + round)}, n)
			fs := []*Future{
				c.CallAsyncCtx(nil, methStore, storeRequest(4*size, data)), // refused: out of range
				c.CallAsyncCtx(nil, methStore, storeRequest(round*size, data)),
				c.CallAsyncCtx(nil, methStore, []byte{1, 2, 3}), // shorter than the head
				c.CallAsyncCtx(nil, methEcho, data),
			}
			var re *RemoteError
			if _, err := fs[0].Wait(); !errors.As(err, &re) || !strings.Contains(re.Message, "outside") {
				t.Fatalf("%d B round %d: refused store: %v", n, round, err)
			}
			if _, err := fs[1].Wait(); err != nil {
				t.Fatalf("%d B round %d: store behind a refused one: %v", n, round, err)
			}
			if _, err := fs[2].Wait(); !errors.As(err, &re) || !strings.Contains(re.Message, "shorter than its 8-byte head") {
				t.Fatalf("%d B round %d: short store: %v", n, round, err)
			}
			if got, err := fs[3].Wait(); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%d B round %d: echo behind the stores: %d bytes, %v", n, round, len(got), err)
			}
			if got := m.bytes(round*size, n); !bytes.Equal(got, data) {
				t.Fatalf("%d B round %d: the store did not land", n, round)
			}
		}
	}
}

// TestReceiveCutMidPayloadEndsConnection: a connection that fails in the
// middle of a received payload gets no reply — the server closes it — and
// the Receiver got exactly the bytes that arrived; the server goes on
// serving other connections.
func TestReceiveCutMidPayloadEndsConnection(t *testing.T) {
	const n = 100 << 10
	m, addr := startStoreServer(t, 2*n)
	conn := rawDial(t, addr)
	e := sendEntry{kind: kindRequest, method: methStore, id: 1, payload: storeRequest(0, bytes.Repeat([]byte{0x42}, n))}
	var frame bytes.Buffer
	if err := writeFrame(&frame, &e); err != nil {
		t.Fatal(err)
	}
	sent := frame.Len() - n/2
	if _, err := conn.Write(frame.Bytes()[:sent]); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if k, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after a cut payload the server sent %d bytes, %v; want the connection closed", k, err)
	}
	arrived := n - n/2
	if got := m.bytes(0, 2*n); !bytes.Equal(got[:arrived], bytes.Repeat([]byte{0x42}, arrived)) ||
		!bytes.Equal(got[arrived:], make([]byte, 2*n-arrived)) {
		t.Error("the Receiver's range does not hold exactly the bytes that arrived")
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(methStore, storeRequest(n, []byte("after"))); err != nil || string(m.bytes(n, 5)) != "after" {
		t.Fatalf("a store on a new connection: %v", err)
	}
}
