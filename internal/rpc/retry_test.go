package rpc

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestSentinelContract locks the error classification clients rely on:
// handler errors wrapping a transport sentinel must reach the caller
// errors.Is-compatible, never as a raw string.
func TestSentinelContract(t *testing.T) {
	const (
		methDead      = 10
		methTransient = 11
		methPlain     = 12
	)
	s := NewServer()
	s.Handle(methDead, func(p []byte) ([]byte, error) {
		return nil, fmt.Errorf("server 3 owns slice 7: %w", ErrServerDead)
	})
	s.Handle(methTransient, func(p []byte) ([]byte, error) {
		return nil, fmt.Errorf("link glitch: %w", ErrTransient)
	})
	s.Handle(methPlain, func(p []byte) ([]byte, error) {
		return nil, errors.New("plain failure")
	})
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	cases := []struct {
		name          string
		call          func(c *Client) error
		wantDead      bool
		wantTransient bool
		wantRemote    bool
		wantMsg       string
	}{
		{
			name:       "handler wraps ErrServerDead",
			call:       func(c *Client) error { _, err := c.Call(methDead, nil); return err },
			wantDead:   true,
			wantRemote: true,
			wantMsg:    "server 3 owns slice 7",
		},
		{
			name:          "handler wraps ErrTransient",
			call:          func(c *Client) error { _, err := c.Call(methTransient, nil); return err },
			wantTransient: true,
			wantRemote:    true,
			wantMsg:       "link glitch",
		},
		{
			name:       "plain handler error stays generic",
			call:       func(c *Client) error { _, err := c.Call(methPlain, nil); return err },
			wantRemote: true,
			wantMsg:    "plain failure",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			err = tc.call(c)
			if err == nil {
				t.Fatal("call unexpectedly succeeded")
			}
			if got := errors.Is(err, ErrServerDead); got != tc.wantDead {
				t.Errorf("errors.Is(err, ErrServerDead) = %v, want %v (err: %v)", got, tc.wantDead, err)
			}
			if got := errors.Is(err, ErrTransient); got != tc.wantTransient {
				t.Errorf("errors.Is(err, ErrTransient) = %v, want %v (err: %v)", got, tc.wantTransient, err)
			}
			var re *RemoteError
			if got := errors.As(err, &re); got != tc.wantRemote {
				t.Errorf("errors.As(err, *RemoteError) = %v, want %v (err: %v)", got, tc.wantRemote, err)
			}
			//lint:ignore sentinelerr the contract under test includes the handler message surviving the wire
			if tc.wantMsg != "" && !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("error %q lost the handler message %q", err, tc.wantMsg)
			}
		})
	}
}

func TestErrorPayloadRoundTrip(t *testing.T) {
	cases := []error{
		errors.New("plain"),
		fmt.Errorf("x: %w", ErrServerDead),
		fmt.Errorf("y: %w", ErrTransient),
	}
	for _, in := range cases {
		re := decodeRemoteError(4, encodeErrorPayload(in))
		//lint:ignore sentinelerr encode/decode must preserve the exact message text
		if re.Message != in.Error() {
			t.Errorf("message %q -> %q", in.Error(), re.Message)
		}
		if errors.Is(in, ErrServerDead) != errors.Is(re, ErrServerDead) {
			t.Errorf("dead classification lost for %v", in)
		}
		if errors.Is(in, ErrTransient) != errors.Is(re, ErrTransient) {
			t.Errorf("transient classification lost for %v", in)
		}
	}
	if re := decodeRemoteError(9, nil); re.Message != "" || re.Method != 9 {
		t.Errorf("empty payload decoded to %+v", re)
	}
}
