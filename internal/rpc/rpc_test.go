package rpc

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
)

const (
	methEcho  = 1
	methUpper = 2
	methFail  = 3
)

func startTestServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := NewServer()
	s.Handle(methEcho, func(p []byte) ([]byte, error) { return p, nil })
	s.Handle(methUpper, func(p []byte) ([]byte, error) {
		return bytes.ToUpper(p), nil
	})
	s.Handle(methFail, func(p []byte) ([]byte, error) {
		return nil, fmt.Errorf("deliberate failure: %s", p)
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func TestCallRoundTrip(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(methEcho, []byte("hello pool"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "hello pool" {
		t.Fatalf("resp = %q", resp)
	}
	resp, err = c.Call(methUpper, []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ABC" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestCallEmptyPayload(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(methEcho, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 0 {
		t.Fatalf("resp = %v", resp)
	}
}

func TestRemoteError(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call(methFail, []byte("boom"))
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("error type: %v", err)
	}
	if !strings.Contains(re.Message, "boom") {
		t.Fatalf("message = %q", re.Message)
	}
	if re.Method != methFail {
		t.Fatalf("method = %d", re.Method)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call(99, nil)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Message, "no handler") {
		t.Fatalf("unknown method error: %v", err)
	}
}

func TestConcurrentCallsMultiplexed(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("msg-%d", i))
			resp, err := c.Call(methEcho, msg)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(resp, msg) {
				t.Errorf("cross-talk: sent %q got %q", msg, resp)
			}
		}()
	}
	wg.Wait()
}

func TestMultipleClients(t *testing.T) {
	_, addr := startTestServer(t)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				msg := []byte(fmt.Sprintf("c%d-%d", i, j))
				resp, err := c.Call(methEcho, msg)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(resp, msg) {
					t.Errorf("mismatch: %q vs %q", msg, resp)
				}
			}
		}()
	}
	wg.Wait()
}

func TestLargePayload(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	resp, err := c.Call(methEcho, big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, big) {
		t.Fatal("large payload corrupted")
	}
}

func TestPayloadTooLarge(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(methEcho, make([]byte, MaxPayload+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestServerCloseFailsPendingCalls(t *testing.T) {
	s := NewServer()
	block := make(chan struct{})
	s.Handle(1, func(p []byte) ([]byte, error) {
		<-block
		return p, nil
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(1, []byte("x"))
		done <- err
	}()
	// Close the server while the call is blocked; unblock the handler so
	// Close's wg.Wait can finish.
	go func() {
		close(block)
	}()
	s.Close()
	if err := <-done; err == nil {
		t.Log("call completed before close (acceptable race)")
	}
}

func TestClientCloseFailsCalls(t *testing.T) {
	_, addr := startTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Call(methEcho, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestLostConnectionIsTransient: a call whose connection dies under it
// fails with ErrTransient, and so does the next call on the client, which
// inherits the loss; neither is ErrClosed. Only an explicit Close fails a
// call with ErrClosed.
func TestLostConnectionIsTransient(t *testing.T) {
	cli, srv := net.Pipe()
	c := newClient(cli)
	defer c.Close()
	f := c.CallAsyncCtx(nil, methEcho, []byte("x"))
	if _, _, err := readFrame(bufio.NewReader(srv)); err != nil {
		t.Fatalf("reading the request: %v", err)
	}
	srv.Close()
	_, inflight := f.Wait()
	_, next := c.Call(methEcho, []byte("y"))
	for _, err := range []error{inflight, next} {
		if !errors.Is(err, ErrTransient) || errors.Is(err, ErrClosed) {
			t.Errorf("call on a lost connection: %v, want ErrTransient", err)
		}
	}
	c.Close()
	if _, err := c.Call(methEcho, []byte("z")); !errors.Is(err, ErrClosed) {
		t.Errorf("call after Close: %v, want ErrClosed", err)
	}
}

func TestServerDoubleClose(t *testing.T) {
	s, _ := startTestServer(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestListenAfterClose(t *testing.T) {
	s := NewServer()
	s.Close()
	if _, err := s.Listen("127.0.0.1:0"); !errors.Is(err, ErrClosed) {
		t.Fatalf("listen after close: %v", err)
	}
}
