package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The ownership wall: the request Async assembles for a wrapped
// transport, which Release recycles once its call has succeeded
// (future.go), against handlers that return their request or a shared
// slice as the reply (the gathered request's borrowed body is
// gather_test.go's). The tests run against real connections and check
// bytes, not pointers: under the race detector a request is overwritten
// with 0xDB when it is recycled, so one recycled while somebody still
// sends it fails a content check here (and a write to it races its next
// owner under the detector).

// A block is a self-describing payload: the issuing caller, that
// caller's sequence number, then bytes derived from both and from the
// position. Any whole block checks out on its own; a torn, stale-mixed
// or poisoned one does not.
const blockHeader = 16

func fillBlock(b []byte, caller, seq uint64) {
	binary.BigEndian.PutUint64(b[0:8], caller)
	binary.BigEndian.PutUint64(b[8:16], seq)
	for i := blockHeader; i < len(b); i++ {
		b[i] = byte(uint64(i)*131 + caller*17 + seq*29)
	}
}

func checkBlock(b []byte) (caller, seq uint64, err error) {
	if len(b) < blockHeader {
		return 0, 0, fmt.Errorf("block of %d bytes", len(b))
	}
	caller, seq = binary.BigEndian.Uint64(b[0:8]), binary.BigEndian.Uint64(b[8:16])
	for i := blockHeader; i < len(b); i++ {
		if want := byte(uint64(i)*131 + caller*17 + seq*29); b[i] != want {
			return caller, seq, fmt.Errorf("block (caller %d, seq %d, %d bytes) is not whole: byte %d is %#x, want %#x", caller, seq, len(b), i, b[i], want)
		}
	}
	return caller, seq, nil
}

// blockSizes cover the three send paths: batched (≤ batchEntryMax),
// bare and copied (≤ frameCoalesceMax), bare and vectored.
var blockSizes = []int{blockHeader, 64, 300, 4 << 10, batchEntryMax + 100, frameCoalesceMax + 1000}

// startBlockEchoServer serves methEcho with a handler that checks the
// block it was handed and returns that same slice as its reply. Blocks that arrive broken are counted, so
// a test whose client has gone away still sees them.
func startBlockEchoServer(t *testing.T) (addr string, broken *atomic.Int64) {
	t.Helper()
	broken = new(atomic.Int64)
	s := NewServer()
	s.Handle(methEcho, func(p []byte) ([]byte, error) {
		if _, _, err := checkBlock(p); err != nil {
			broken.Add(1)
			return nil, err
		}
		return p, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return addr, broken
}

// wrapped is a transport wrapper over a *Client, like the chaos link or
// the benchmark's seam: Async assembles a request for it, which rides
// with the future.
type wrapped struct{ *Client }

// issueBlock sends one block through Async over a wrapped transport.
func issueBlock(c *Client, ctx context.Context, size int, caller, seq uint64) *Future {
	block := make([]byte, size)
	fillBlock(block, caller, seq)
	return Async(wrapped{c}, ctx, methEcho, nil, block)
}

// TestEchoAliasedReplyPipelined is wall (a): the handler returns its
// request as the reply, eight callers keep four calls in flight each,
// every future is released — so request and future recycle — and every
// reply must be the whole block its call sent.
func TestEchoAliasedReplyPipelined(t *testing.T) {
	addr, broken := startBlockEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const callers, rounds, depth = 8, 60, 4
	var wg sync.WaitGroup
	for caller := uint64(0); caller < callers; caller++ {
		wg.Add(1)
		go func(caller uint64) {
			defer wg.Done()
			var fs [depth]*Future
			for round := 0; round < rounds; round++ {
				for d := range fs {
					seq := uint64(round*depth + d)
					fs[d] = issueBlock(c, nil, blockSizes[(seq+caller)%uint64(len(blockSizes))], caller, seq)
				}
				for d, f := range fs {
					seq := uint64(round*depth + d)
					got, err := f.Wait()
					if err != nil {
						t.Errorf("caller %d seq %d: %v", caller, seq, err)
					} else if gc, gs, err := checkBlock(got); err != nil || gc != caller || gs != seq ||
						len(got) != blockSizes[(seq+caller)%uint64(len(blockSizes))] {
						t.Errorf("caller %d seq %d: reply is block (caller %d, seq %d, %d bytes), err %v", caller, seq, gc, gs, len(got), err)
					}
					f.Release()
				}
			}
		}(caller)
	}
	wg.Wait()
	if n := broken.Load(); n != 0 {
		t.Errorf("the server was handed %d broken blocks", n)
	}
	if st := c.Stats(); st.Pending != 0 || st.Started != st.Completed {
		t.Errorf("pending=%d started=%d completed=%d", st.Pending, st.Started, st.Completed)
	}
}

// TestCloseRoundsRecycle is wall (c): callers issue and release pooled
// calls on a connection that is closed under them with calls in flight,
// round after round on a fresh connection each time. A call that failed
// leaves its request buffer to the collector (the flusher may still hold
// the frame), so whatever the interleaving, the server only ever sees
// whole blocks and a successful reply is the caller's own.
func TestCloseRoundsRecycle(t *testing.T) {
	addr, broken := startBlockEchoServer(t)
	const callers, depth = 4, 4
	var ok, failed atomic.Int64
	for round := 0; round < 20; round++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for caller := uint64(0); caller < callers; caller++ {
			wg.Add(1)
			go func(caller uint64) {
				defer wg.Done()
				var fs [depth]*Future
				for seq := uint64(0); ; seq += depth {
					for d := range fs {
						s := seq + uint64(d)
						fs[d] = issueBlock(c, nil, blockSizes[s%uint64(len(blockSizes))], caller, s)
					}
					closed := false
					for d, f := range fs {
						got, err := f.Wait()
						switch {
						case err == nil:
							if gc, gs, err := checkBlock(got); err != nil || gc != caller || gs != seq+uint64(d) {
								t.Errorf("caller %d seq %d: reply is block (caller %d, seq %d), err %v", caller, seq+uint64(d), gc, gs, err)
							}
							ok.Add(1)
						case errors.Is(err, ErrClosed):
							failed.Add(1)
							closed = true
						default:
							t.Errorf("caller %d seq %d: %v", caller, seq+uint64(d), err)
						}
						f.Release()
					}
					if closed {
						return
					}
				}
			}(caller)
		}
		// Close once this connection has moved calls, however slow the box;
		// the wait is bounded so a wedged transport fails the degenerate-run
		// check below instead of hanging.
		for was, deadline := ok.Load(), time.Now().Add(5*time.Second); ok.Load() < was+callers && time.Now().Before(deadline); {
			time.Sleep(50 * time.Microsecond)
		}
		c.Close()
		wg.Wait()
	}
	if ok.Load() == 0 || failed.Load() == 0 {
		t.Errorf("degenerate run: %d calls succeeded, %d failed closed", ok.Load(), failed.Load())
	}
	if n := broken.Load(); n != 0 {
		t.Errorf("the server was handed %d broken blocks", n)
	}
}

// staticReply is what the handler of wall (e) returns for every request:
// a package-level slice.
var staticReply = func() []byte {
	b := make([]byte, 128)
	fillBlock(b, 0xE, 0xE)
	return b
}()

// TestStaticReplyNeverAdopted is wall (e): a handler may return a shared
// slice. It is sent and left alone — never recycled with the requests
// around it, so never poisoned or written.
func TestStaticReplyNeverAdopted(t *testing.T) {
	s := NewServer()
	s.Handle(methEcho, func([]byte) ([]byte, error) { return staticReply, nil })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for caller := uint64(0); caller < 4; caller++ {
		wg.Add(1)
		go func(caller uint64) {
			defer wg.Done()
			for seq := uint64(0); seq < 200; seq++ {
				f := issueBlock(c, nil, len(staticReply), caller, seq)
				got, err := f.Wait()
				if err != nil {
					t.Errorf("caller %d seq %d: %v", caller, seq, err)
				} else if gc, gs, err := checkBlock(got); err != nil || gc != 0xE || gs != 0xE {
					t.Errorf("caller %d seq %d: reply is not the static block: (caller %#x, seq %#x), err %v", caller, seq, gc, gs, err)
				}
				f.Release()
			}
		}(caller)
	}
	wg.Wait()
	if _, _, err := checkBlock(staticReply); err != nil {
		t.Errorf("the handler's static reply was written to: %v", err)
	}
}

// TestUnframeableReplyFailsOnlyItsCall: a handler reply past MaxPayload
// cannot be framed. It used to reach writeFrame, whose refusal failed
// the reply batcher and closed the connection under every pipelined
// call; it is that one call's error now.
func TestUnframeableReplyFailsOnlyItsCall(t *testing.T) {
	const methHuge = 9
	s, addr := startTestServer(t)
	s.Handle(methHuge, func([]byte) ([]byte, error) { return make([]byte, MaxPayload+1), nil })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	huge := c.CallAsyncCtx(nil, methHuge, nil)
	var behind [4]*Future
	for i := range behind {
		behind[i] = c.CallAsyncCtx(nil, methEcho, []byte{byte(i)})
	}
	var re *RemoteError
	if _, err := huge.Wait(); !errors.As(err, &re) {
		t.Errorf("oversized reply: %v, want a remote error for that call", err)
	}
	for i, f := range behind {
		if got, err := f.Wait(); err != nil || len(got) != 1 || got[0] != byte(i) {
			t.Errorf("call %d pipelined behind the oversized reply: %v, %v", i, got, err)
		}
	}
	if got, err := c.Call(methEcho, []byte("after")); err != nil || string(got) != "after" {
		t.Errorf("the connection after the oversized reply: %q, %v", got, err)
	}
}
