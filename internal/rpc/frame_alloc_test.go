package rpc

import (
	"io"
	"testing"
)

// TestWriteFrameAllocFree pins the framing path: assembling and writing
// a small frame must not allocate (the frame buffer is pooled), since
// every pool operation in live mode pays this cost twice (request and
// response).
func TestWriteFrameAllocFree(t *testing.T) {
	payload := make([]byte, 512)
	if n := testing.AllocsPerRun(200, func() {
		if err := writeFrame(io.Discard, &sendEntry{kind: kindRequest, method: 1, id: 7, payload: payload}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("writeFrame allocates %.1f per frame, want 0", n)
	}
	// The large-payload path trades the copy for a second write; it may
	// not allocate either.
	big := make([]byte, frameCoalesceMax+1)
	if n := testing.AllocsPerRun(50, func() {
		if err := writeFrame(io.Discard, &sendEntry{kind: kindRequest, method: 1, id: 7, payload: big}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("writeFrame (large) allocates %.1f per frame, want 0", n)
	}
}
