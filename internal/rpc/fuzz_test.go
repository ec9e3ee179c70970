package rpc

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzFrameRoundTrip checks that any frame writeFrame accepts is read
// back by readFrame bit-identically.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(byte(kindRequest), byte(1), uint64(1), []byte("hello"))
	f.Add(byte(kindResponse), byte(200), uint64(0), []byte{})
	f.Add(byte(kindError), byte(7), ^uint64(0), []byte{0x00, 0xFF})
	f.Fuzz(func(t *testing.T, kind, method byte, id uint64, payload []byte) {
		var buf bytes.Buffer
		if err := writeFrame(&buf, &sendEntry{kind: kind, method: method, id: id, payload: payload}); err != nil {
			if len(payload) > MaxPayload-prefixLen(kind) {
				return // the documented rejection
			}
			t.Fatalf("writeFrame rejected a legal frame: %v", err)
		}
		h, got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame failed on a written frame: %v", err)
		}
		if h.kind != kind || h.method != method || h.id != id {
			t.Fatalf("header %+v, want kind=%d method=%d id=%d", h, kind, method, id)
		}
		if prefixLen(kind) > 0 {
			// A prefixed request kind reads back with its metadata (the
			// entry's zero budget and span) ahead of the payload.
			budget, sc, rest, ok := decodePrefix(kind, got)
			if !ok || budget != 0 || sc.Traced() {
				t.Fatalf("prefix of kind %d decoded ok=%v budget=%d sc=%+v, want zero metadata", kind, ok, budget, sc)
			}
			got = rest
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload corrupted: wrote %d bytes, read %d", len(payload), len(got))
		}
		if buf.Len() != 0 {
			t.Fatalf("%d trailing bytes after one frame", buf.Len())
		}
	})
}

// FuzzReadFrame feeds arbitrary bytes to the decoder: it must never
// panic, never allocate beyond MaxPayload, and anything it accepts must
// re-encode to the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	_ = writeFrame(&seed, &sendEntry{kind: kindRequest, method: 3, id: 42, payload: []byte("seed")})
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 20))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		h, payload, err := readFrame(r)
		if err != nil {
			return // rejected input is fine; not panicking is the property
		}
		if int(h.length) != len(payload) || h.length > MaxPayload {
			t.Fatalf("accepted frame with length %d but %d payload bytes", h.length, len(payload))
		}
		e := sendEntry{kind: h.kind, method: h.method, id: h.id, payload: payload}
		if prefixLen(h.kind) > 0 {
			var ok bool
			if e.budget, e.sc, e.payload, ok = decodePrefix(h.kind, payload); !ok {
				return // shorter than its kind's prefix: dispatch rejects it, the encoder never emits it
			}
		}
		var re bytes.Buffer
		if err := writeFrame(&re, &e); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		consumed := len(data) - r.Len()
		if !bytes.Equal(re.Bytes(), data[:consumed]) {
			t.Fatal("accepted frame does not round-trip to its own encoding")
		}
	})
}

// FuzzErrorPayload checks the error-frame classification layer: decoding
// never panics, and encode→decode preserves both the message and the
// sentinel classification.
func FuzzErrorPayload(f *testing.F) {
	f.Add([]byte{errCodeGeneric, 'p', 'l', 'a', 'i', 'n'})
	f.Add([]byte{errCodeServerDead})
	f.Add([]byte{errCodeTransient, 'x'})
	f.Add([]byte{})
	f.Add([]byte{0x77, 0xFF, 0x00})
	f.Fuzz(func(t *testing.T, payload []byte) {
		re := decodeRemoteError(1, payload)
		if re == nil {
			t.Fatal("decodeRemoteError returned nil")
		}
		if errors.Is(re, ErrServerDead) && errors.Is(re, ErrTransient) {
			t.Fatal("error classified as two sentinels at once")
		}
		// Re-encode what we decoded: classification must be stable.
		back := decodeRemoteError(1, encodeErrorPayload(re))
		if errors.Is(re, ErrServerDead) != errors.Is(back, ErrServerDead) ||
			errors.Is(re, ErrTransient) != errors.Is(back, ErrTransient) {
			t.Fatal("sentinel classification changed across encode/decode")
		}
		//lint:ignore sentinelerr the wire-format property under test is exact message preservation
		if back.Message != re.Error() {
			t.Fatalf("message %q -> %q", re.Error(), back.Message)
		}
	})
}

// FuzzReadFrameTruncation confirms every strict prefix of a valid frame
// is rejected with an error rather than a short read being accepted.
func FuzzReadFrameTruncation(f *testing.F) {
	f.Add(byte(2), uint64(9), []byte("payload"), 3)
	f.Fuzz(func(t *testing.T, method byte, id uint64, payload []byte, cut int) {
		if len(payload) > MaxPayload {
			return
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, &sendEntry{kind: kindRequest, method: method, id: id, payload: payload}); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		if cut < 0 {
			cut = -cut
		}
		if len(raw) == 0 {
			return
		}
		cut %= len(raw)
		if _, _, err := readFrame(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(raw))
		} else if cut >= 14 && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("payload truncation error = %v, want EOF-ish", err)
		}
	})
}
