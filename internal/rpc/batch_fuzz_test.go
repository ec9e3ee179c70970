package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lmp-project/lmp/internal/telemetry"
)

// pipeServe serves s over one end of a net.Pipe and returns the other,
// which the test writes requests to and reads replies from.
func pipeServe(t testing.TB, s *Server) net.Conn {
	t.Helper()
	cli, srv := net.Pipe()
	if !s.serve(srv) {
		t.Fatal("a new server refused a connection")
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// readAll reads reply frames off conn until it fails and sends each on
// the returned channel, which it closes then.
func readAll(conn net.Conn) <-chan frameHeader {
	out := make(chan frameHeader)
	go func() {
		defer close(out)
		br := bufio.NewReader(conn)
		for {
			h, _, err := readFrame(br)
			if err != nil {
				return
			}
			out <- h
		}
	}()
	return out
}

// FuzzBatchRoundTrip packs fuzz-shaped requests of every flag combination
// into one write the way the batcher does and serves them through the
// server's real read loop: each comes back to its id with its payload
// bit-identical, whether a Handler or a Receiver served it, and each
// traced one's span is a child of the span it carried.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(9), []byte("a"), []byte("bb"), true)
	f.Add(uint64(7), uint64(7), []byte{}, []byte{0xFF}, false)      // duplicate ids, empty payload
	f.Add(^uint64(0), uint64(0), []byte("x"), []byte("yyyy"), true) // extreme ids
	f.Fuzz(func(t *testing.T, id1, id2 uint64, p1, p2 []byte, traced bool) {
		if len(p1) > batchEntryMax || len(p2) > batchEntryMax {
			return
		}
		const methCopy = 2
		s := NewServer()
		s.Handle(methEcho, func(p []byte) ([]byte, error) { return append([]byte(nil), p...), nil })
		s.HandleReceive(methCopy, 0, func(_ []byte, body io.Reader, n int) ([]byte, error) {
			p := make([]byte, n)
			_, err := io.ReadFull(body, p)
			return p, err
		})
		tr := telemetry.NewTracer(telemetry.TracerConfig{SlowOpNS: -1})
		s.SetTracer(tr)
		defer s.Close()
		conn := pipeServe(t, s)
		k1 := byte(kindRequest)
		if traced {
			k1 |= flagTraced
		}
		second := time.Second.Nanoseconds() // a budget no run spends
		entries := []sendEntry{
			{kind: k1, method: methEcho, id: id1, sc: telemetry.SpanContext{Trace: id2 | 1, Span: id1}, payload: p1},
			{kind: kindRequest, method: methCopy, id: id1 ^ id2, payload: p2},
			{kind: kindRequest | flagBudget, method: methEcho, id: id2 + 1, budget: int64(id1%1e9) + second, payload: p2},
			{kind: kindRequest | flagBudget | flagTraced, method: methCopy, id: id1 + 1, budget: int64(id2%1e9) + second,
				sc: telemetry.SpanContext{Trace: id1 | 1, Span: id2}, payload: p1},
			{kind: k1, method: methCopy, id: id2, sc: telemetry.SpanContext{Trace: id1 | 1, Span: id1 + id2}, payload: p2},
		}
		want := map[uint64][][]byte{}
		wantSpans := map[telemetry.SpanContext]int{}
		for _, e := range entries {
			want[e.id] = append(want[e.id], e.payload)
			if e.kind&flagTraced != 0 {
				wantSpans[e.sc]++
			}
		}
		b := &batcher{w: conn}
		if err := b.writeBatch(entries); err != nil {
			t.Fatal(err)
		}
		if b.framesSent.Load() != 1 || b.batchedSends.Load() != uint64(len(entries)) {
			t.Fatalf("%d writes carrying %d packed frames, want the %d entries in one", b.framesSent.Load(), b.batchedSends.Load(), len(entries))
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		br := bufio.NewReader(conn)
		for range entries {
			h, p, err := readFrame(br)
			if err != nil {
				t.Fatal(err)
			}
			if h.kind != kindResponse {
				t.Fatalf("reply to %d: kind %d, %v", h.id, h.kind, decodeRemoteError(h.method, p))
			}
			got := false
			for j, w := range want[h.id] {
				if bytes.Equal(w, p) {
					want[h.id] = append(want[h.id][:j], want[h.id][j+1:]...)
					got = true
					break
				}
			}
			if !got {
				t.Fatalf("reply to %d carries %d bytes that no request with that id sent", h.id, len(p))
			}
		}
		// Close waits for the handlers, and so for every span to end.
		s.Close()
		for _, sp := range tr.Spans() {
			sc := telemetry.SpanContext{Trace: sp.Trace, Span: sp.Parent}
			if wantSpans[sc] == 0 {
				t.Fatalf("span %+v is the child of no traced request", sp)
			}
			wantSpans[sc]--
		}
		for sc, n := range wantSpans {
			if n != 0 {
				t.Fatalf("%d traced requests carrying %+v left no span", n, sc)
			}
		}
	})
}

// gatherBodies are the body sizes FuzzGatheredFrames draws from: either
// side of batchEntryMax and of frameCoalesceMax, whichever head rides in
// front.
var gatherBodies = []int{0, 1, 100, batchEntryMax - headMax, batchEntryMax - 1, batchEntryMax, batchEntryMax + 1,
	frameCoalesceMax - headMax, frameCoalesceMax - 1, frameCoalesceMax, frameCoalesceMax + 1, 100 << 10}

// FuzzGatheredFrames pins the wire format of the gathered request: a run
// of request entries (every flag combination; heads of 0–16 bytes; bodies
// either side of the packing and coalescing bounds), each gathered or
// not, is written by the batcher once as drawn and once with every head
// folded into a contiguous payload, and both writes must produce the same
// bytes — frames written alone and packed runs that mix the two shapes
// alike — which read back, frame by frame, as the entries that went in.
// Each entry takes three bytes of shape: flags, head length, body size.
func FuzzGatheredFrames(f *testing.F) {
	flags := [...]byte{0, flagTraced, flagBudget, flagBudget | flagTraced}
	f.Add([]byte{0, 8, 3, 1, 12, 0, 2, 0, 1, 3, 16, 9}, uint64(1))
	f.Add([]byte{0, 8, 8, 0, 8, 6, 0, 8, 10}, uint64(2))          // alone: at, under and over the coalescing bound
	f.Add([]byte{1, 12, 1, 2, 8, 2, 3, 4, 4, 0, 0, 5}, uint64(3)) // one packed run, cut at batchEntryMax
	f.Fuzz(func(t *testing.T, shape []byte, seed uint64) {
		var gathered, contiguous []sendEntry
		for i := 0; i+3 <= len(shape) && len(gathered) < 8; i += 3 {
			id := seed + uint64(i)
			e := sendEntry{
				kind:    kindRequest | flags[shape[i]%4],
				method:  byte(i),
				headLen: shape[i+1] % (headMax + 1),
				id:      id,
				budget:  int64(id%1e9) + 1,
				sc:      telemetry.SpanContext{Trace: id * 3, Span: id * 5},
				payload: make([]byte, gatherBodies[int(shape[i+2])%len(gatherBodies)]),
			}
			for j := range e.head[:e.headLen] {
				e.head[j] = byte(id) + byte(j)
			}
			for j := range e.payload {
				e.payload[j] = byte(j) ^ byte(id)
			}
			c := e
			c.headLen, c.head = 0, [headMax]byte{}
			c.payload = append(append([]byte(nil), e.head[:e.headLen]...), e.payload...)
			if shape[i+1]&0x80 != 0 { // leave this one contiguous on both sides
				e = c
			}
			gathered, contiguous = append(gathered, e), append(contiguous, c)
		}
		var a, b bytes.Buffer
		if err := (&batcher{w: &a}).writeBatch(gathered); err != nil {
			t.Fatal(err)
		}
		if err := (&batcher{w: &b}).writeBatch(contiguous); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("gathered entries wrote %d bytes, contiguous ones %d: the wire differs", a.Len(), b.Len())
		}
		for i, e := range contiguous {
			h, p, err := readFrame(&a)
			if err != nil {
				t.Fatalf("frame %d of %d: %v", i, len(contiguous), err)
			}
			budget, sc, rest, ok := decodePrefix(h.kind, p)
			if !ok || h.kind != e.kind || h.method != e.method || h.id != e.id || !bytes.Equal(rest, e.payload) {
				t.Fatalf("frame %d reads back as %+v with %d payload bytes, want kind %d method %d id %d and %d bytes",
					i, h, len(rest), e.kind, e.method, e.id, len(e.payload))
			}
			if e.kind&flagBudget != 0 && budget != e.budget || e.kind&flagTraced != 0 && sc != e.sc {
				t.Fatalf("frame %d carries budget %d, span %+v; want %d, %+v", i, budget, sc, e.budget, e.sc)
			}
		}
		if a.Len() != 0 {
			t.Fatalf("%d bytes after the last frame", a.Len())
		}
	})
}

// packed is the stream the batcher writes for entries.
func packed(entries ...sendEntry) []byte {
	var w bytes.Buffer
	if err := (&batcher{w: &w}).writeBatch(entries); err != nil {
		panic(err)
	}
	return w.Bytes()
}

// rawFrame is a frame of any kind with exactly payload behind its header,
// whatever metadata its flags call for.
func rawFrame(kind, method byte, id uint64, payload []byte) []byte {
	b := binary.BigEndian.AppendUint64([]byte{kind, method}, id)
	return append(binary.BigEndian.AppendUint32(b, uint32(len(payload))), payload...)
}

// streamVerdict walks a byte stream the way a server with a Receiver on
// methStore and Handlers elsewhere reads it. It returns the ids of the
// request frames that arrive whole before the stream breaks the protocol
// or stops, and whether it breaks the protocol: a frame longer than
// MaxPayload, or one that is not a request or is too short for its flags'
// metadata prefix, which a Receiver's method rejects from its header and
// a Handler's once the frame is whole.
func streamVerdict(data []byte) (whole []uint64, violation bool) {
	for len(data) >= frameHeaderLen {
		kind, method, id, length := data[0], data[1], binary.BigEndian.Uint64(data[2:10]), binary.BigEndian.Uint32(data[10:14])
		if length > MaxPayload {
			return whole, true
		}
		_, _, prefix, ok := requestMeta(kind)
		complete := uint64(len(data)-frameHeaderLen) >= uint64(length)
		if (!ok || int(length) < prefix) && (complete || method == methStore) {
			return whole, true
		}
		if !complete {
			break
		}
		whole = append(whole, id)
		data = data[frameHeaderLen+int(length):]
	}
	return whole, false
}

// FuzzServeConn feeds arbitrary bytes to a server's read loop over a
// net.Pipe, with a Handler, a Receiver and unrouted methods behind it.
// Whatever the bytes, nothing panics; every reply answers a request frame
// that arrived whole before the stream broke the protocol or stopped —
// never one that was cut — and each such frame at most once; a stream
// that breaks the protocol is closed by the server, and one that does not
// gets a reply to every whole request; and Close returns only once every
// handler has.
func FuzzServeConn(f *testing.F) {
	req := func(kind, method byte, id uint64, payload []byte) sendEntry {
		return sendEntry{kind: kind, method: method, id: id, budget: time.Hour.Nanoseconds(),
			sc: telemetry.SpanContext{Trace: id, Span: id + 1}, payload: payload}
	}
	run := packed(
		req(kindRequest, methEcho, 1, []byte("one")),
		req(kindRequest|flagTraced, methStore, 2, storeRequest(8, []byte("stored"))),
		req(kindRequest|flagBudget, methEcho, 3, nil),
		req(kindRequest|flagBudget|flagTraced, methStore, 4, storeRequest(60, []byte("far out of range"))),
		req(kindRequest, 99, 5, []byte("nobody")),
		req(kindRequest, methStore, 6, []byte{1, 2}), // shorter than the head
	)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	refused := packed(req(kindRequest, methStore, 7, storeRequest(64, []byte("xy"))))
	f.Add(run)
	f.Add(run[:len(run)-1])                                                              // the last request cut
	f.Add(cat(run, refused[:len(refused)-1]))                                            // a store its Receiver refuses, cut
	f.Add(cat(run[:len(run)-5], packed(req(kindRequest, methEcho, 8, nil))))             // a frame cut short by the next one
	f.Add(cat(rawFrame(kindResponse, methEcho, 9, []byte("x")), run))                    // a response sent to the server
	f.Add(cat(run, rawFrame(kindRequest|flagTraced, methEcho, 10, []byte("short"))))     // shorter than its prefix
	f.Add(rawFrame(kindRequest|flagBudget, methStore, 11, []byte{1}))                    // the same, to a Receiver
	f.Add(rawFrame(kindRequest, methEcho, 12, nil)[:10])                                 // a header cut
	f.Add([]byte{kindRequest, methEcho, 0, 0, 0, 0, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF}) // longer than MaxPayload
	f.Add([]byte{})
	f.Add(claimHeader(kindRequest, 99, 13))                             // a header claiming MaxPayload, and no body
	f.Add(cat(claimHeader(kindRequest, 99, 14), []byte("a few bytes"))) // the same, cut after a few bytes of body
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewServer()
		var running atomic.Int64
		s.Handle(methEcho, func(p []byte) ([]byte, error) {
			running.Add(1)
			defer running.Add(-1)
			runtime.Gosched()
			return p, nil
		})
		store := make([]byte, 64)
		s.HandleReceive(methStore, 8, func(head []byte, body io.Reader, n int) ([]byte, error) {
			off := binary.BigEndian.Uint64(head)
			if off > uint64(len(store)) || uint64(n) > uint64(len(store))-off {
				return nil, errors.New("outside the store")
			}
			_, err := io.ReadFull(body, store[off:off+uint64(n)])
			return nil, err
		})
		s.SetTracer(telemetry.NewTracer(telemetry.TracerConfig{RingSize: 16}))
		defer s.Close()
		conn := pipeServe(t, s)
		whole, violation := streamVerdict(data)
		owed := map[uint64]int{}
		for _, id := range whole {
			owed[id]++
		}
		replies := readAll(conn)
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			conn.Write(data)
		}()
		var got int
		take := func(h frameHeader) {
			if h.kind != kindResponse && h.kind != kindError {
				t.Fatalf("the server sent a kind-%d frame", h.kind)
			}
			if owed[h.id] == 0 {
				t.Fatalf("a reply to id %d, which no whole request in the stream is owed", h.id)
			}
			owed[h.id]--
			got++
		}
		timeout := time.After(10 * time.Second)
		switch {
		case violation: // the server must end the connection by itself
			for ended := false; !ended; {
				select {
				case h, ok := <-replies:
					if ended = !ok; ok {
						take(h)
					}
				case <-timeout:
					t.Fatal("the server kept a connection that broke the protocol")
				}
			}
		default: // every whole request is answered while the server waits for more
			for got < len(whole) {
				select {
				case h, ok := <-replies:
					if !ok {
						t.Fatalf("the server ended a connection that kept the protocol, with %d of %d replies", got, len(whole))
					}
					take(h)
				case <-timeout:
					t.Fatalf("%d of %d whole requests answered", got, len(whole))
				}
			}
		}
		<-wrote
		s.Close()
		if n := running.Load(); n != 0 {
			t.Fatalf("Close returned with %d handlers running", n)
		}
		for h := range replies {
			take(h)
		}
	})
}
