package rpc

import (
	"bytes"
	"testing"
)

// drain empties every class of p, so a test that counts the process-wide
// pool's hits, misses or retained bytes starts from a known pool. The
// pool's own tests count a bufferPool of their own instead, which no
// straggler of another test can put into.
func (p *bufferPool) drain() {
	for i := range p.classes {
		c := &p.classes[i]
		c.mu.Lock()
		for c.n > 0 {
			c.n--
			p.retained.Add(-int64(cap(c.free[c.n])))
			c.free[c.n] = nil
		}
		c.mu.Unlock()
	}
}

// TestBufferClassesFitHeaders pins the class geometry: a power-of-two
// payload plus the headers that ride in front of it (8-byte write offset,
// 24-byte budget+trace prefix) stays in the class of that power of two —
// it does not round up to the next one — and every size maps to the
// smallest class that holds it.
func TestBufferClassesFitHeaders(t *testing.T) {
	var p bufferPool
	for k := minBufShift; k <= maxBufShift; k++ {
		for _, hdr := range []int{0, 8, 12, 8 + 24, bufSlack} {
			n := 1<<k + hdr
			if n > MaxPayload {
				continue
			}
			want := 1<<minBufShift + bufSlack // the smallest class that holds n
			for want < n {
				want = (want-bufSlack)<<1 + bufSlack
			}
			b := p.get(n)
			if len(b) != n || cap(b) != want || want > 1<<k+bufSlack {
				t.Errorf("get(2^%d+%d): len %d cap %d, want len %d cap %d", k, hdr, len(b), cap(b), n, want)
			}
		}
		if n := 1<<k + bufSlack + 1; n <= MaxPayload {
			if b := p.get(n); cap(b) != 1<<(k+1)+bufSlack {
				t.Errorf("get(2^%d+%d): cap %d, want the next class", k, bufSlack+1, cap(b))
			}
		}
	}
	if b := p.get(1); cap(b) != 1<<minBufShift+bufSlack {
		t.Errorf("get(1): cap %d, want the smallest class", cap(b))
	}
	if b := p.get(0); b == nil || len(b) != 0 || cap(b) != 0 {
		t.Errorf("get(0) = %v (cap %d), want an empty non-nil slice that cannot be recycled", b, cap(b))
	}
}

// TestBufferPoolRecyclesOnlyItsOwn: a buffer that came from GetBuffer
// comes back on the next get of its class; nothing else is ever kept —
// not a slice of foreign capacity, not a size above MaxPayload.
func TestBufferPoolRecyclesOnlyItsOwn(t *testing.T) {
	var p bufferPool
	b := p.get(1000)
	p.put(b)
	if got := p.retained.Load(); got != int64(cap(b)) {
		t.Fatalf("retained %d after one put, want %d", got, cap(b))
	}
	if again := p.get(900); &again[0] != &b[0] {
		t.Error("a put buffer was not handed out again by the next get of its class")
	}
	if got := p.retained.Load(); got != 0 {
		t.Fatalf("retained %d with every buffer out, want 0", got)
	}

	p.put(nil)
	p.put(make([]byte, 1000))           // not a class capacity
	p.put(make([]byte, 1<<10))          // a bare power of two is not one either
	p.put(p.get(MaxPayload + 1))        // oversized: allocated exactly, never kept
	p.put(make([]byte, 1<<25+bufSlack)) // class-shaped but past the largest class
	if got := p.retained.Load(); got != 0 {
		t.Errorf("retained %d after putting only foreign buffers, want 0", got)
	}
	if b := p.get(MaxPayload + 1); cap(b) != MaxPayload+1 {
		t.Errorf("get(MaxPayload+1): cap %d, want an exact allocation", cap(b))
	}
}

// TestBufferPoolBounded: whatever is put, the pool keeps at most
// bufClassSlots buffers per class and BufferRetainMax bytes in total.
func TestBufferPoolBounded(t *testing.T) {
	var p bufferPool
	small := make([][]byte, 2*bufClassSlots)
	for i := range small {
		small[i] = p.get(100)
	}
	for _, b := range small {
		p.put(b)
	}
	if got, want := p.retained.Load(), int64(bufClassSlots*cap(small[0])); got != want {
		t.Errorf("retained %d after %d puts into one class, want %d (%d slots)", got, len(small), want, bufClassSlots)
	}
	p.drain()

	// 1 MiB buffers: the byte bound bites before the slot bound.
	big := make([][]byte, 16)
	for i := range big {
		big[i] = p.get(1 << 20)
	}
	for _, b := range big {
		p.put(b)
	}
	got := p.retained.Load()
	if got > BufferRetainMax {
		t.Errorf("retained %d bytes, above BufferRetainMax %d", got, BufferRetainMax)
	}
	if want := int64(BufferRetainMax / cap(big[0]) * cap(big[0])); got != want {
		t.Errorf("retained %d bytes of 1 MiB buffers, want %d (as many as fit the bound)", got, want)
	}
}

// TestBufferPoolHitAllocFree: a get that hits and the put that follows
// allocate nothing — no boxed slice header, no node.
func TestBufferPoolHitAllocFree(t *testing.T) {
	p := new(bufferPool)
	for _, n := range []int{12, 72, 4096, 256<<10 + 8} {
		p.put(p.get(n)) // warm the class
		if a := testing.AllocsPerRun(100, func() { p.put(p.get(n)) }); a != 0 {
			t.Errorf("get(%d)+put allocate %.1f per pair, want 0", n, a)
		}
	}
}

// TestReadFramePooledErrors: a frame's payload comes from the pool and,
// on every failure, goes back instead of being returned short. The
// header is read into scratch the read loop owns, so it takes nothing.
func TestReadFramePooledErrors(t *testing.T) {
	bufPool.drain()
	defer bufPool.drain()
	var w bytes.Buffer
	if err := writeFrame(&w, &sendEntry{kind: kindRequest, method: 1, id: 1, payload: make([]byte, 5000)}); err != nil {
		t.Fatal(err)
	}
	frame := w.Bytes()
	for cut := 0; cut < len(frame); cut += 97 {
		_, payload, err := readFrame(bytes.NewReader(frame[:cut]))
		if err == nil || payload != nil {
			t.Fatalf("truncated at %d: err %v, payload of %d bytes", cut, err, len(payload))
		}
	}
	over := append([]byte(nil), frame[:frameHeaderLen]...)
	over[10], over[11], over[12], over[13] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, payload, err := readFrame(bytes.NewReader(over)); err == nil || payload != nil {
		t.Fatalf("over-long frame: err %v, payload of %d bytes", err, len(payload))
	}
	// Every buffer those reads took is back, once: the 5000-byte payload's
	// (8 KiB class), reused from attempt to attempt.
	want := int64(8<<10 + bufSlack)
	if got := bufPool.retained.Load(); got != want {
		t.Errorf("retained %d after failed reads, want %d: a failed read leaked or double-put a buffer", got, want)
	}
}
