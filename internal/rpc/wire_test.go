package rpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"github.com/lmp-project/lmp/internal/telemetry"
)

// readFrame reads one whole frame the way both read loops do when the
// payload has no destination: the header into scratch of the loop's own,
// then the payload through readPayload.
func readFrame(r io.Reader) (frameHeader, []byte, error) {
	var hdr [frameHeaderLen]byte
	h, err := readHeader(r, hdr[:])
	if err != nil {
		return frameHeader{}, nil, err
	}
	p, err := readPayload(r, h.length)
	if err != nil {
		return frameHeader{}, nil, err
	}
	return h, p, nil
}

// rawDial opens a plain TCP connection to a test server.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestServerDisconnectsOnGarbage(t *testing.T) {
	_, addr := startTestServer(t)
	conn := rawDial(t, addr)
	// Random junk that cannot be a valid request frame.
	if _, err := conn.Write(bytes.Repeat([]byte{0xFF}, 64)); err != nil {
		t.Fatal(err)
	}
	// The server must close the connection (oversized length prefix).
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept the connection after garbage")
	}
}

func TestServerRejectsOversizedFrame(t *testing.T) {
	_, addr := startTestServer(t)
	conn := rawDial(t, addr)
	var hdr [14]byte
	hdr[0] = kindRequest
	hdr[1] = methEcho
	binary.BigEndian.PutUint64(hdr[2:10], 1)
	binary.BigEndian.PutUint32(hdr[10:14], MaxPayload+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err != io.EOF {
		t.Fatalf("expected EOF after oversized frame, got %v", err)
	}
}

func TestServerDropsNonRequestFrames(t *testing.T) {
	_, addr := startTestServer(t)
	conn := rawDial(t, addr)
	// A response frame arriving at the server is a protocol violation.
	if err := writeFrame(conn, &sendEntry{kind: kindResponse, method: methEcho, id: 7, payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestClientSurvivesStaleResponseID(t *testing.T) {
	// A server that answers with an unknown request id: the client must
	// ignore it and still serve real calls afterwards.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// First, push an unsolicited response with a bogus id.
		_ = writeFrame(conn, &sendEntry{kind: kindResponse, method: 1, id: 9999, payload: []byte("stale")})
		// Then behave: echo one real request.
		h, payload, err := readFrame(conn)
		if err != nil {
			return
		}
		_ = writeFrame(conn, &sendEntry{kind: kindResponse, method: h.method, id: h.id, payload: payload})
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(1, []byte("real"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "real" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 70000)}
	for i, p := range payloads {
		buf.Reset()
		if err := writeFrame(&buf, &sendEntry{kind: kindRequest, method: byte(i), id: uint64(i) * 7, payload: p}); err != nil {
			t.Fatal(err)
		}
		h, got, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if h.kind != kindRequest || h.method != byte(i) || h.id != uint64(i)*7 {
			t.Fatalf("header = %+v", h)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("payload %d corrupted", i)
		}
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, &sendEntry{kind: kindRequest, method: 1, id: 1, payload: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		if _, _, err := readFrame(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestFrameEncodingTable pins the one encoder against the wire format for
// every request flag combination and both write paths (coalesced and
// header-then-payload): a frame is header + metadata prefix + payload, a
// packed run is those same bytes back to back, and readFrame followed by
// decodePrefix hands back the budget, span identity and payload that went
// in.
func TestFrameEncodingTable(t *testing.T) {
	span := telemetry.SpanContext{Trace: 0x1122334455667788, Span: 0x99AABBCCDDEEFF00}
	const budget = int64(1500 * time.Microsecond)
	kinds := []struct {
		name   string
		kind   byte
		budget int64
		sc     telemetry.SpanContext
	}{
		{"plain", kindRequest, 0, telemetry.SpanContext{}},
		{"traced", kindRequest | flagTraced, 0, span},
		{"budget", kindRequest | flagBudget, budget, telemetry.SpanContext{}},
		{"traced+budget", kindRequest | flagBudget | flagTraced, budget, span},
	}
	for _, k := range kinds {
		for _, size := range []int{0, 1 << 10, frameCoalesceMax + 1} {
			payload := bytes.Repeat([]byte{0x5A}, size)
			e := sendEntry{kind: k.kind, method: 9, id: 0xABCDEF, budget: k.budget, sc: k.sc, payload: payload}

			var prefix []byte
			if k.budget != 0 {
				prefix = binary.BigEndian.AppendUint64(prefix, uint64(k.budget))
			}
			if k.sc.Traced() {
				prefix = binary.BigEndian.AppendUint64(prefix, k.sc.Trace)
				prefix = binary.BigEndian.AppendUint64(prefix, k.sc.Span)
			}
			want := []byte{k.kind, 9}
			want = binary.BigEndian.AppendUint64(want, 0xABCDEF)
			want = binary.BigEndian.AppendUint32(want, uint32(len(prefix)+size))
			want = append(append(want, prefix...), payload...)

			check := func(where string, h frameHeader, p []byte) {
				t.Helper()
				if h.kind != k.kind || h.method != 9 || h.id != 0xABCDEF {
					t.Fatalf("%s/%d %s: header = %+v", k.name, size, where, h)
				}
				gotBudget, gotSC, rest, ok := decodePrefix(h.kind, p)
				if !ok || gotBudget != k.budget || gotSC != k.sc || !bytes.Equal(rest, payload) {
					t.Fatalf("%s/%d %s: decoded ok=%v budget=%d sc=%+v payload %d B; want budget=%d sc=%+v payload %d B",
						k.name, size, where, ok, gotBudget, gotSC, len(rest), k.budget, k.sc, size)
				}
			}

			var bare bytes.Buffer
			if err := writeFrame(&bare, &e); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bare.Bytes(), want) {
				t.Fatalf("%s/%d: bare frame differs from header+prefix+payload", k.name, size)
			}
			h, p, err := readFrame(bytes.NewReader(bare.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			check("bare", h, p)

			// The batch assembler, driven without its flusher goroutine:
			// two copies of the entry are the same two frames whether they
			// are packed into one write or, too large to pack, go out in
			// two; a packed run counts once.
			var out bytes.Buffer
			b := &batcher{w: &out}
			if err := b.writeBatch([]sendEntry{e, e}); err != nil {
				t.Fatal(err)
			}
			if twice := append(append([]byte(nil), want...), want...); !bytes.Equal(out.Bytes(), twice) {
				t.Fatalf("%s/%d: two entries are not two frames back to back", k.name, size)
			}
			packed := uint64(1)
			if size > batchEntryMax {
				packed = 0
			}
			if b.framesSent.Load() != 2-packed || b.batchesSent.Load() != packed || b.batchedSends.Load() != 2*packed || b.maxBatch.Load() != 2*packed {
				t.Fatalf("%s/%d: counters frames=%d batches=%d sends=%d max=%d", k.name, size,
					b.framesSent.Load(), b.batchesSent.Load(), b.batchedSends.Load(), b.maxBatch.Load())
			}
			for i := 0; i < 2; i++ {
				h, p, err := readFrame(&out)
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("frame %d of two", i), h, p)
			}
		}
	}
}
