package rpc

import (
	"bytes"
	"encoding/binary"
	"testing"

	"github.com/lmp-project/lmp/internal/telemetry"
)

// encodeBatchEnvelope assembles a full batch frame (header + sub-frames)
// the way the batcher does, for test use.
func encodeBatchEnvelope(entries []sendEntry) []byte {
	var body []byte
	for i := range entries {
		body = append(appendFrame(body, &entries[i]), entries[i].payload...)
	}
	buf := []byte{kindBatch, 0}
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(entries)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(body)))
	return append(buf, body...)
}

// FuzzBatchRoundTrip builds a batch from fuzz-shaped entries, encodes it
// the way the batcher does, and checks the decoder returns every
// sub-frame bit-identically and in order — including interleaved reply
// kinds and traced requests carrying span prefixes.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(9), []byte("a"), []byte("bb"), true)
	f.Add(uint64(7), uint64(7), []byte{}, []byte{0xFF}, false)      // duplicate ids, empty payload
	f.Add(^uint64(0), uint64(0), []byte("x"), []byte("yyyy"), true) // extreme ids
	f.Fuzz(func(t *testing.T, id1, id2 uint64, p1, p2 []byte, traced bool) {
		if len(p1) > batchEntryMax || len(p2) > batchEntryMax {
			return
		}
		k1 := byte(kindResponse)
		if traced {
			k1 = kindTracedRequest
		}
		entries := []sendEntry{
			{kind: k1, method: 1, id: id1, sc: telemetry.SpanContext{Trace: id2, Span: id1}, payload: p1},
			{kind: kindError, method: 2, id: id2, payload: p2},
			{kind: kindRequest, method: 3, id: id1 ^ id2, payload: p1},
			{kind: kindBudgetRequest, method: 4, id: id2 + 1, budget: int64(id1%1e9) + 1, payload: p2},
			{kind: kindTracedBudgetRequest, method: 5, id: id1 + 1, budget: int64(id2%1e9) + 1,
				sc: telemetry.SpanContext{Trace: id1, Span: id2}, payload: p1},
		}
		frame := encodeBatchEnvelope(entries)
		h, payload, err := readFrame(bytes.NewReader(frame))
		if err != nil || h.kind != kindBatch {
			t.Fatalf("envelope did not read back: %+v %v", h, err)
		}
		var got []sendEntry
		err = decodeBatch(payload, h.id, func(sh frameHeader, sub []byte) error {
			e := sendEntry{kind: sh.kind, method: sh.method, id: sh.id}
			if len(sub) < prefixLen(sh.kind) {
				t.Fatalf("kind-%d sub-frame shorter than its metadata prefix", sh.kind)
			}
			if sh.kind == kindBudgetRequest || sh.kind == kindTracedBudgetRequest {
				e.budget = int64(binary.BigEndian.Uint64(sub[0:8]))
				sub = sub[budgetHeaderLen:]
			}
			if sh.kind == kindTracedRequest || sh.kind == kindTracedBudgetRequest {
				e.sc.Trace = binary.BigEndian.Uint64(sub[0:8])
				e.sc.Span = binary.BigEndian.Uint64(sub[8:16])
				sub = sub[traceHeaderLen:]
			}
			e.payload = append([]byte(nil), sub...)
			got = append(got, e)
			return nil
		})
		if err != nil {
			t.Fatalf("decodeBatch rejected a legal batch: %v", err)
		}
		if len(got) != len(entries) {
			t.Fatalf("decoded %d sub-frames, want %d", len(got), len(entries))
		}
		for i, e := range entries {
			g := got[i]
			if g.kind != e.kind || g.method != e.method || g.id != e.id {
				t.Fatalf("sub-frame %d header %+v, want %+v", i, g, e)
			}
			if (e.kind == kindTracedRequest || e.kind == kindTracedBudgetRequest) && g.sc != e.sc {
				t.Fatalf("sub-frame %d span %+v, want %+v", i, g.sc, e.sc)
			}
			if g.budget != e.budget {
				t.Fatalf("sub-frame %d budget %d, want %d", i, g.budget, e.budget)
			}
			if !bytes.Equal(g.payload, e.payload) {
				t.Fatalf("sub-frame %d payload corrupted", i)
			}
		}
	})
}

// FuzzDecodeBatch feeds arbitrary bytes and counts to the batch decoder:
// it must never panic, and whatever it accepts must account for every
// byte of the envelope with exactly the declared number of sub-frames.
func FuzzDecodeBatch(f *testing.F) {
	good := encodeBatchEnvelope([]sendEntry{
		{kind: kindResponse, method: 1, id: 1, payload: []byte("ok")},
		{kind: kindError, method: 2, id: 2, payload: []byte{errCodeTransient, 'x'}},
	})
	f.Add(good[frameHeaderLen:], uint64(2))
	f.Add(good[frameHeaderLen:len(good)-1], uint64(2))                         // truncated final sub-frame
	f.Add(good[frameHeaderLen:], uint64(3))                                    // count mismatch
	f.Add([]byte{kindBatch, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0}, uint64(2)) // nested batch tag
	f.Add([]byte{0xEE, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0}, uint64(2))      // unknown sub tag decodes; kinds are the receiver's business
	f.Add([]byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, payload []byte, count uint64) {
		var subs int
		var consumed int
		err := decodeBatch(payload, count, func(h frameHeader, sub []byte) error {
			subs++
			consumed += frameHeaderLen + len(sub)
			if uint32(len(sub)) != h.length {
				t.Fatalf("visited sub-frame length %d with %d payload bytes", h.length, len(sub))
			}
			return nil
		})
		if err != nil {
			return // rejected input is fine; not panicking is the property
		}
		if uint64(subs) != count {
			t.Fatalf("accepted batch with %d sub-frames but declared count %d", subs, count)
		}
		if consumed != len(payload) {
			t.Fatalf("accepted batch consumed %d of %d payload bytes", consumed, len(payload))
		}
	})
}

// gatherBodies are the body sizes FuzzGatheredFrames draws from: either
// side of batchEntryMax and of frameCoalesceMax, whichever head rides in
// front.
var gatherBodies = []int{0, 1, 100, batchEntryMax - headMax, batchEntryMax - 1, batchEntryMax, batchEntryMax + 1,
	frameCoalesceMax - headMax, frameCoalesceMax - 1, frameCoalesceMax, frameCoalesceMax + 1, 100 << 10}

// FuzzGatheredFrames pins the wire format of the gathered request: a run
// of request entries (kinds 1, 4, 6 and 7; heads of 0–16 bytes; bodies
// either side of the batching and coalescing bounds), each gathered or
// not, is written by the batcher once as drawn and once with every head
// folded into a contiguous payload, and both writes must produce the same
// bytes — bare frames and batches that mix the two shapes alike. Each
// entry takes three bytes of shape: kind, head length, body size.
func FuzzGatheredFrames(f *testing.F) {
	f.Add([]byte{0, 8, 3, 1, 12, 0, 2, 0, 1, 3, 16, 9}, uint64(1))
	f.Add([]byte{0, 8, 8, 0, 8, 6, 0, 8, 10}, uint64(2))          // bare: at, under and over the coalescing bound
	f.Add([]byte{1, 12, 1, 2, 8, 2, 3, 4, 4, 0, 0, 5}, uint64(3)) // one batch, cut at batchEntryMax
	f.Fuzz(func(t *testing.T, shape []byte, seed uint64) {
		kinds := [...]byte{kindRequest, kindTracedRequest, kindBudgetRequest, kindTracedBudgetRequest}
		var gathered, contiguous []sendEntry
		for i := 0; i+3 <= len(shape) && len(gathered) < 8; i += 3 {
			id := seed + uint64(i)
			e := sendEntry{
				kind:    kinds[shape[i]%4],
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
	})
}
