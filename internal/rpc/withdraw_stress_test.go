package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWaitCtxWithdrawalStress races WaitCtx's pending-entry withdrawal
// against the response over a real Client/Server: concurrent
// CallAsyncCtx whose contexts are cancelled at seeded offsets around the
// handler's reply time. Whichever side takes the pending entry resolves
// the call, exactly once: every call returns its own echo or an error
// wrapping ctx.Err(), never another call's bytes; afterwards nothing is
// pending, and Close leaves no goroutine behind. Replay one seed with
// -run 'TestWaitCtxWithdrawalStress/seed=<n>$'.
func TestWaitCtxWithdrawalStress(t *testing.T) {
	var echoed, cancelled atomic.Int64
	for seed := int64(1); seed <= 50; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runWithdrawalStress(t, seed, &echoed, &cancelled)
		})
	}
	// Over the sweep both sides of the race must have won, or the test
	// checks nothing.
	if echoed.Load() == 0 || cancelled.Load() == 0 {
		t.Fatalf("degenerate sweep: %d echoed, %d cancelled", echoed.Load(), cancelled.Load())
	}
	t.Logf("echoed=%d cancelled=%d", echoed.Load(), cancelled.Load())
}

func runWithdrawalStress(t *testing.T, seed int64, echoed, cancelled *atomic.Int64) {
	const (
		calls = 48
		reply = 200 * time.Microsecond // handler time per call
		never = time.Duration(1<<63 - 1)
	)
	before := runtime.NumGoroutine()

	// One seed names one schedule, drawn up front on this goroutine. The
	// cancellation is anchored to the handler's reply, not to the issue
	// time, so queueing ahead of the handler (a slow box, -race, one P)
	// cannot move every cancel to one side of the race: offset < 0 cancels
	// that long before the handler replies, offset >= 0 that long after.
	// A few calls are cancelled before they are issued (the fast-fail path
	// that never registers) and a few are never cancelled.
	rng := rand.New(rand.NewSource(seed))
	ctxs := make([]context.Context, calls)
	cancels := make([]context.CancelFunc, calls)
	offsets := make([]time.Duration, calls)
	for i := range offsets {
		ctxs[i], cancels[i] = context.WithCancel(context.Background())
		switch rng.Intn(16) {
		case 0:
			cancels[i]()
			offsets[i] = never
		case 1, 2:
			offsets[i] = never
		default:
			offsets[i] = time.Duration(rng.Int63n(int64(2*reply))) - reply
		}
	}

	s := NewServer()
	s.Handle(methEcho, func(p []byte) ([]byte, error) {
		i := binary.BigEndian.Uint64(p[8:])
		switch off := offsets[i]; {
		case off == never:
			time.Sleep(reply)
		case off < 0:
			time.Sleep(reply + off)
			cancels[i]()
			time.Sleep(-off)
		default:
			time.Sleep(reply)
			time.AfterFunc(off, cancels[i])
		}
		return p, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		s.Close()
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := ctxs[i]
			defer cancels[i]()
			want := make([]byte, 16)
			binary.BigEndian.PutUint64(want, uint64(seed))
			binary.BigEndian.PutUint64(want[8:], uint64(i))
			got, err := c.CallAsyncCtx(ctx, methEcho, want).WaitCtx(ctx)
			switch {
			case err == nil:
				if !bytes.Equal(got, want) {
					t.Errorf("call %d resolved with another call's bytes: %x, want %x", i, got, want)
				}
				echoed.Add(1)
			case ctx.Err() != nil && errors.Is(err, ctx.Err()):
				cancelled.Add(1)
			default:
				t.Errorf("call %d: %v (ctx.Err() = %v)", i, err, ctx.Err())
			}
		}(i)
	}
	wg.Wait()

	if st := c.Stats(); st.Pending != 0 || st.Started != st.Completed {
		t.Errorf("after every call resolved: pending=%d started=%d completed=%d", st.Pending, st.Started, st.Completed)
	}
	c.Close()
	s.Close()

	// A handler's AfterFunc may still be about to fire: give it a moment
	// to exit.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after Close\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWithdrawnWritesStoreWholeBlocks is the request-buffer half of the
// withdrawal race (wall (b)): callers send self-describing blocks through
// Async over a wrapped transport, which assembles each in a request it
// recycles on success, and their contexts are cancelled at
// seeded moments — a third of them straight after the issue, while the
// frame still sits in the send queue, a third from a timer around the
// round trip. Every future is released whatever its outcome. A request
// buffer recycled after a withdrawn call would be refilled by the next
// request Async assembles while the flusher still sends the old frame from
// it, so the store would see a torn block or the same block twice; it
// must only ever see whole blocks, each once.
func TestWithdrawnWritesStoreWholeBlocks(t *testing.T) {
	const callers, writes = 4, 400
	var broken, dup atomic.Int64
	var mu sync.Mutex
	seen := make(map[[2]uint64]bool)
	s := NewServer()
	s.Handle(methEcho, func(p []byte) ([]byte, error) {
		caller, seq, err := checkBlock(p)
		if err != nil {
			broken.Add(1)
			return nil, err
		}
		mu.Lock()
		if seen[[2]uint64{caller, seq}] {
			dup.Add(1)
		}
		seen[[2]uint64{caller, seq}] = true
		mu.Unlock()
		return nil, nil
	})
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

	var stored, cancelled atomic.Int64
	var wg sync.WaitGroup
	for caller := uint64(0); caller < callers; caller++ {
		wg.Add(1)
		go func(caller uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(caller) + 1))
			for seq := uint64(0); seq < writes; seq++ {
				ctx, cancel := context.WithCancel(context.Background())
				f := issueBlock(c, ctx, blockSizes[rng.Intn(len(blockSizes))], caller, seq)
				switch rng.Intn(3) {
				case 0:
					cancel()
				case 1:
					time.AfterFunc(time.Duration(rng.Int63n(int64(300*time.Microsecond))), cancel)
				}
				_, err := f.WaitCtx(ctx)
				switch {
				case err == nil:
					stored.Add(1)
				case ctx.Err() != nil && errors.Is(err, ctx.Err()):
					cancelled.Add(1)
				default:
					t.Errorf("caller %d seq %d: %v (ctx.Err() = %v)", caller, seq, err, ctx.Err())
				}
				f.Release()
				cancel()
			}
		}(caller)
	}
	wg.Wait()
	if stored.Load() == 0 || cancelled.Load() == 0 {
		t.Fatalf("degenerate run: %d stored, %d cancelled", stored.Load(), cancelled.Load())
	}
	if b, d := broken.Load(), dup.Load(); b != 0 || d != 0 {
		t.Errorf("the store was handed %d broken blocks and %d blocks twice", b, d)
	}
	if st := c.Stats(); st.Pending != 0 || st.Started != st.Completed {
		t.Errorf("after every call resolved: pending=%d started=%d completed=%d", st.Pending, st.Started, st.Completed)
	}
}
