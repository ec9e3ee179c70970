package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
)

// The destination wall: a reply whose caller named a destination
// (Future.Into) lands in it and nowhere else. These tests drive the
// client's read loop from a scripted peer on a net.Pipe, which hands over
// every write whole before the writer goes on, so the order of header,
// take and payload is the script's.

// pipeClient runs a client over one end of a net.Pipe and returns the
// other end, whose reads drain every request the client sends.
func pipeClient(t testing.TB) (*Client, net.Conn) {
	t.Helper()
	cli, srv := net.Pipe()
	c := newClient(cli)
	go io.Copy(io.Discard, srv)
	t.Cleanup(func() {
		srv.Close()
		c.Close()
	})
	return c, srv
}

// replyHeader encodes a reply frame's header.
func replyHeader(kind byte, id uint64, n int) []byte {
	h := []byte{kind, methEcho}
	h = binary.BigEndian.AppendUint64(h, id)
	return binary.BigEndian.AppendUint32(h, uint32(n))
}

// waitTaken polls until the read loop has taken every pending call.
func waitTaken(t testing.TB, c *Client) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); c.Stats().Pending != 0; {
		if time.Now().After(deadline) {
			t.Fatal("the read loop never took the call")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestIntoAfterReplyTaken: Into reaching a call whose reply header the
// read loop has already taken — its payload now on its way into a new
// slice — still gets the bytes, copied when the waiter consumes them.
func TestIntoAfterReplyTaken(t *testing.T) {
	c, srv := pipeClient(t)
	f := c.CallAsyncCtx(nil, methEcho, nil)
	if _, err := srv.Write(replyHeader(kindResponse, 1, 8)); err != nil {
		t.Fatal(err)
	}
	waitTaken(t, c)
	dst := make([]byte, 8)
	f.Into(dst)
	if _, err := srv.Write([]byte("late dst")); err != nil {
		t.Fatal(err)
	}
	got, err := f.Wait()
	if err != nil || string(dst) != "late dst" || &got[0] != &dst[0] {
		t.Fatalf("Wait = %q, %v; destination holds %q, want the reply in it and returned", got, err, dst)
	}
	f.Release()
}

// TestWaitCtxWaitsForStreamingReply: a WaitCtx whose context ends while
// its reply streams into the destination returns only once that frame is
// read (the reply wins) or the connection fails under it — never while
// the read loop may still write to the destination.
func TestWaitCtxWaitsForStreamingReply(t *testing.T) {
	for _, finish := range []string{"frame read", "connection failed"} {
		t.Run(finish, func(t *testing.T) {
			c, srv := pipeClient(t)
			ctx, cancel := context.WithCancel(context.Background())
			dst := make([]byte, 64<<10)
			f := c.CallAsyncCtx(ctx, methEcho, nil).Into(dst)
			reply := bytes.Repeat([]byte{0x5C}, len(dst))
			if _, err := srv.Write(append(replyHeader(kindResponse, 1, len(reply)), reply[:len(reply)/2]...)); err != nil {
				t.Fatal(err)
			}
			waitTaken(t, c)
			cancel()
			type result struct {
				p   []byte
				err error
			}
			done := make(chan result, 1)
			go func() {
				p, err := f.WaitCtx(ctx)
				done <- result{p, err}
			}()
			select {
			case r := <-done:
				t.Fatalf("WaitCtx returned (%d bytes, %v) with half its reply still to come", len(r.p), r.err)
			case <-time.After(20 * time.Millisecond):
			}
			if finish == "frame read" {
				if _, err := srv.Write(reply[len(reply)/2:]); err != nil {
					t.Fatal(err)
				}
				if r := <-done; r.err != nil || !bytes.Equal(dst, reply) {
					t.Fatalf("WaitCtx after the frame was read: %v; destination whole: %t", r.err, bytes.Equal(dst, reply))
				}
				return
			}
			srv.Close()
			if r := <-done; r.err == nil {
				t.Fatal("WaitCtx succeeded on a reply cut in half")
			}
		})
	}
}

// FuzzReplyInto plays a hostile or broken peer against calls with
// destinations: the script picks, frame by frame, the id (live, stale or
// unknown), the kind (reply, error, or a reply and the next call's packed
// into one write) and the length (exact or not), may cancel one call
// midway, and may cut its last frame short. Whatever it does, no byte is written outside a destination, a
// destination is written only by a reply of exactly its length to its own
// call, and nothing writes to it once WaitCtx has returned — checked by
// poisoning it then, as a released buffer is poisoned under the race
// detector (where such a write is also a reported race).
func FuzzReplyInto(f *testing.F) {
	f.Add([]byte{1, 0, 0, 2, 0, 0, 3, 0, 0})             // every call answered exactly, one write each
	f.Add([]byte{1, 0, 3, 3, 0, 3})                      // packed pairs of replies
	f.Add([]byte{1, 5, 0, 2, 9, 1, 1, 0, 0})             // wrong lengths, a duplicate
	f.Add([]byte{0, 0, 0, 4, 0, 0, 2, 0, 0x82, 2, 0, 0}) // unknown ids, a cancel, a stale reply
	f.Add([]byte{3, 0, 0x40})                            // cut mid-payload
	f.Fuzz(func(t *testing.T, script []byte) {
		c, srv := pipeClient(t)
		const calls = 3
		const guardByte, poison = 0xEE, 0xDB
		sizes := [calls + 1]int{0, 16, 40, 300}
		guard := bytes.Repeat([]byte{guardByte}, 512)
		var dst [calls + 1][]byte
		var fs [calls + 1]*Future
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		outside := make([]bool, len(guard))
		for i := range outside {
			outside[i] = true
		}
		at := 8
		for id := 1; id <= calls; id++ {
			dst[id] = guard[at : at+sizes[id] : at+sizes[id]]
			for i := at; i < at+sizes[id]; i++ {
				outside[i] = false
			}
			at += sizes[id] + 8
			var callCtx context.Context
			if id == 2 {
				callCtx = ctx
			}
			fs[id] = c.CallAsyncCtx(callCtx, methEcho, nil).Into(dst[id])
		}
		// The bytes of a reply to id at step k are all byte(k*8+id): a
		// whole destination names the call its writer answered.
		var cancelled bool
		var cancelledErr error
		b := &batcher{w: srv}
		for k := 0; k+3 <= len(script) && k < 3*31; k += 3 {
			id := uint64(script[k]) % (calls + 2) // 0 and calls+1 are never pending
			length := func(id uint64) int {
				if script[k+1]&1 == 0 && id >= 1 && id <= calls {
					return sizes[id]
				}
				return int(script[k+1] >> 1)
			}
			fill := func(id uint64) []byte { return bytes.Repeat([]byte{byte(k/3*8) + byte(id)}, length(id)) }
			flags := script[k+2]
			var err error
			switch {
			case flags&0x40 != 0: // the last frame, cut one byte short
				p := fill(id)
				_, err = srv.Write(append(replyHeader(kindResponse, id, len(p)+1), p...))
			case flags&3 == 3:
				next := id%(calls+1) + 1
				err = b.writeBatch([]sendEntry{
					{kind: kindResponse, method: methEcho, id: id, payload: fill(id)},
					{kind: kindResponse, method: methEcho, id: next, payload: fill(next)},
				})
			case flags&3 == 2:
				err = writeFrame(srv, &sendEntry{kind: kindError, method: methEcho, id: id, payload: []byte{0, 'x'}})
			default:
				err = writeFrame(srv, &sendEntry{kind: kindResponse, method: methEcho, id: id, payload: fill(id)})
			}
			if err != nil || flags&0x40 != 0 {
				break
			}
			if flags&0x80 != 0 && !cancelled {
				cancelled = true
				cancel()
				if _, cancelledErr = fs[2].WaitCtx(ctx); cancelledErr != nil {
					for i := range dst[2] {
						dst[2][i] = poison
					}
				}
			}
		}
		srv.Close()
		for id := 1; id <= calls; id++ {
			var got []byte
			var err error
			if id == 2 && cancelled {
				got, err = dst[2], cancelledErr
			} else {
				got, err = fs[id].Wait()
			}
			if err != nil {
				continue
			}
			if len(got) != len(dst[id]) || len(got) > 0 && &got[0] != &dst[id][0] {
				t.Fatalf("call %d succeeded with %d bytes that are not its %d-byte destination", id, len(got), len(dst[id]))
			}
			for _, v := range dst[id] {
				if v != dst[id][0] || int(v)%8 != id {
					t.Fatalf("call %d: destination %x is not one whole reply of its own", id, dst[id])
				}
			}
		}
		c.Close() // the read loop has returned: nothing can write any more
		if cancelled && cancelledErr != nil && !bytes.Equal(dst[2], bytes.Repeat([]byte{poison}, len(dst[2]))) {
			t.Fatalf("call 2's destination was written after its WaitCtx returned: %x", dst[2])
		}
		for i, v := range guard {
			if outside[i] && v != guardByte {
				t.Fatalf("byte %d, outside every destination, was written: %#x", i, v)
			}
		}
		for id := 1; id <= calls; id++ {
			fs[id].Release()
		}
	})
}
