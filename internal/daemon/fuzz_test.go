package daemon

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/lmp-project/lmp/internal/memnode"
	"github.com/lmp-project/lmp/internal/rpc"
)

// FuzzDaemonHandlers feeds arbitrary (method, payload) pairs — what a
// peer can put on the socket — to the daemon's handlers, and to its read
// and write receivers the way rpc hands one a request: the head, then a
// reader over the rest (a bytes.Reader); a
// request shorter than a receiver's head goes over a real connection,
// where rpc must refuse it. Whatever arrives, a handler must not panic
// (it runs in a goroutine of its own, a receiver on a connection's read
// goroutine: a panic there takes the whole lmpd down), must not build a
// reply the codec cannot carry, a receiver must read no more than its
// request and write nothing outside the range it names — a read nothing
// at all, and its reply is the node's bytes of the range it names, or a
// refusal when the request carries bytes past its head — and both must
// leave the region's books straight: InUse moves only by what a
// successful alloc or free says it moved, and stays within the region;
// and a freed extent reads as zeros (the scrub goes through
// Node.DropRange with an offset that came off the wire). One server lives
// across inputs, with a shadow of its allocations, so frees and resizes
// find state to act on.
func FuzzDaemonHandlers(f *testing.F) {
	rng := rawRange
	u64 := func(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }
	f.Add(MethodRead, rng(math.MaxInt64-5, 10)) // wrapped off+n past both range checks
	f.Add(MethodSum, rng(math.MaxInt64-5, 10))
	f.Add(MethodWrite, append(u64(math.MaxInt64-5), "0123456789"...))
	f.Add(MethodRead, rng(0, math.MaxUint32))
	f.Add(MethodRead, rng(0, 4096))
	f.Add(MethodRead, append(rng(8192, 16), "a body"...)) // a read carries nothing past its head
	f.Add(MethodRead, []byte{0, 0, 0, 0, 0, 0, 0x20, 0})  // shorter than the head
	f.Add(MethodWrite, []byte{0, 0, 0})
	f.Add(MethodWrite, append(u64(8192), "hello"...))
	f.Add(MethodAlloc, u64(math.MaxInt64)) // rounding up to a page wrapped negative
	f.Add(MethodAlloc, u64(3*memnode.PageSize))
	f.Add(MethodFree, u64(0))
	f.Add(MethodResize, u64(1<<63|5)) // a negative limit
	f.Add(MethodResize, u64(1<<18))
	f.Add(byte(8), []byte{0, 0, 0, 8}) // the retired heat query: unregistered like byte(0) below
	f.Add(MethodInfo, []byte(nil))
	f.Add(MethodStats, []byte("ignored"))
	f.Add(byte(0), []byte{1, 2, 3})

	const capacity = 1 << 20
	s, err := NewServer("fuzz", capacity, capacity/2)
	if err != nil {
		f.Fatal(err)
	}
	methods := map[byte]wireMethod{}
	for _, m := range s.wireMethods() {
		methods[m.id] = m
	}
	live := map[int64]int64{} // offset → bytes, per successful alloc replies
	var inUse int64
	var wire *Client
	if addr, err := s.Listen("127.0.0.1:0"); err == nil {
		if wire, err = Dial(addr); err != nil {
			f.Fatal(err)
		}
		f.Cleanup(func() {
			wire.Close()
			s.Close()
		})
	}

	f.Fuzz(func(t *testing.T, method byte, payload []byte) {
		m, ok := methods[method]
		if !ok {
			return // rpc answers an unregistered method itself
		}
		var reply []byte
		var err error
		if m.receive != nil {
			if len(payload) < m.headLen {
				shortHead(t, wire, m, payload)
				return
			}
			reply, err = receive(t, s, m, payload)
		} else {
			reply, err = m.handler(payload)
		}
		if len(reply) > rpc.MaxPayload {
			t.Fatalf("method %d: reply of %d bytes exceeds MaxPayload", method, len(reply))
		}
		if err == nil {
			switch method {
			case MethodAlloc:
				off := int64(binary.BigEndian.Uint64(reply))
				want := int64(binary.BigEndian.Uint64(payload))
				got := s.node.InUse() - inUse
				if got < want || got%memnode.PageSize != 0 || live[off] != 0 {
					t.Fatalf("alloc of %d bytes at %d moved InUse by %d (offset live: %t)", want, off, got, live[off] != 0)
				}
				live[off] = got
				inUse += got
			case MethodFree:
				off := int64(binary.BigEndian.Uint64(payload))
				if live[off] == 0 {
					t.Fatalf("free of %d succeeded; nothing is allocated there", off)
				}
				freed := make([]byte, live[off])
				if err := s.node.ReadAt(freed, off); err != nil {
					t.Fatalf("freed extent [%d,+%d) unreadable: %v", off, len(freed), err)
				}
				if i := bytes.IndexFunc(freed, func(r rune) bool { return r != 0 }); i >= 0 {
					t.Fatalf("freed extent [%d,+%d) still holds data at byte %d", off, len(freed), i)
				}
				inUse -= live[off]
				delete(live, off)
			}
		}
		if got := s.node.InUse(); got != inUse || got < 0 || got > s.node.SharedBytes() || s.node.SharedBytes() > capacity {
			t.Fatalf("after method %d (err %v): InUse %d, shadow %d, region %d of capacity %d", method, err, got, inUse, s.node.SharedBytes(), capacity)
		}
	})
}

// receive drives a receiver as rpc does and checks what it did to lent
// memory: it read no more than the request, a read changed nothing, took
// nothing from the body and answered with the node's bytes of the range it
// names, and a write changed nothing outside the range it names — all of
// which holds the request's bytes when it succeeded.
func receive(t *testing.T, s *Server, m wireMethod, payload []byte) ([]byte, error) {
	before := make([]byte, s.node.SharedBytes())
	if err := s.node.ReadAt(before, 0); err != nil {
		t.Fatal(err)
	}
	body := bytes.NewReader(payload[m.headLen:])
	reply, err := m.receive(payload[:m.headLen], body, body.Len())
	after := make([]byte, len(before))
	if err := s.node.ReadAt(after, 0); err != nil {
		t.Fatal(err)
	}
	off, data := int64(binary.BigEndian.Uint64(payload)), payload[m.headLen:]
	if m.id == MethodRead {
		n := int64(binary.BigEndian.Uint32(payload[8:]))
		switch {
		case body.Len() != len(data):
			t.Fatalf("read of %d bytes at %d took %d bytes of its body", n, off, len(data)-body.Len())
		case !bytes.Equal(before, after):
			t.Fatalf("read of %d bytes at %d changed lent memory", n, off)
		case err == nil && len(data) > 0:
			t.Fatalf("read of %d bytes at %d with a %d-byte body accepted", n, off, len(data))
		case err == nil && !bytes.Equal(reply, after[off:off+n]):
			t.Fatalf("read of %d bytes at %d replied %d bytes that are not the node's", n, off, len(reply))
		}
		return reply, err
	}
	switch {
	case err != nil && body.Len() != len(data):
		t.Fatalf("write of %d bytes at %d failed (%v) after reading %d of them", len(data), off, err, len(data)-body.Len())
	case err != nil && !bytes.Equal(before, after):
		t.Fatalf("write of %d bytes at %d failed (%v) and changed lent memory", len(data), off, err)
	case err == nil && (!bytes.Equal(after[off:off+int64(len(data))], data) ||
		!bytes.Equal(after[:off], before[:off]) || !bytes.Equal(after[off+int64(len(data)):], before[off+int64(len(data)):])):
		t.Fatalf("write of %d bytes at %d did not land exactly on its range", len(data), off)
	}
	return reply, err
}

// shortHead sends a request shorter than m's head over wire, a connection
// to the fuzzed server: rpc must refuse it before the receiver sees a
// byte. wire is nil where listening is forbidden.
func shortHead(t *testing.T, wire *Client, m wireMethod, payload []byte) {
	if wire == nil {
		return
	}
	_, err := wire.c.Call(m.id, payload)
	var re *rpc.RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Message, "shorter than") {
		t.Fatalf("%s request of %d bytes, short of its %d-byte head: %v, want refused", m.name, len(payload), m.headLen, err)
	}
}
