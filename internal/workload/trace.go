package workload

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Trace is a recorded access stream that can be persisted and replayed —
// the repeatable-experiment companion to the generators.
type Trace struct {
	Accesses []Access
}

// traceMagic guards the binary format.
var traceMagic = [4]byte{'L', 'M', 'P', 'T'}

const traceVersion = 1

// Record drains a generator into a trace.
func Record(g Generator) *Trace {
	return &Trace{Accesses: Drain(g)}
}

// WriteTo serializes the trace: magic, version, count, then per access a
// varint-encoded offset delta, size, and write flag.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := 0
	write := func(p []byte) error {
		m, err := bw.Write(p)
		n += int64(m)
		return err
	}
	if err := write(traceMagic[:]); err != nil {
		return n, err
	}
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:4], traceVersion)
	binary.BigEndian.PutUint64(hdr[4:12], uint64(len(t.Accesses)))
	if err := write(hdr[:]); err != nil {
		return n, err
	}
	var buf [binary.MaxVarintLen64]byte
	prev := int64(0)
	for _, a := range t.Accesses {
		k := binary.PutVarint(buf[:], a.Offset-prev)
		if err := write(buf[:k]); err != nil {
			return n, err
		}
		prev = a.Offset
		k = binary.PutUvarint(buf[:], uint64(a.Size))
		if err := write(buf[:k]); err != nil {
			return n, err
		}
		flag := byte(0)
		if a.Write {
			flag = 1
		}
		if err := write([]byte{flag}); err != nil {
			return n, err
		}
		count++
	}
	return n, bw.Flush()
}

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("workload: malformed trace")

// ReadTrace deserializes a trace written by WriteTo.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic[:])
	}
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if v := binary.BigEndian.Uint32(hdr[0:4]); v != traceVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadTrace, v)
	}
	count := binary.BigEndian.Uint64(hdr[4:12])
	const maxTrace = 1 << 28 // sanity bound
	if count > maxTrace {
		return nil, fmt.Errorf("%w: %d accesses", ErrBadTrace, count)
	}
	t := &Trace{Accesses: make([]Access, 0, count)}
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		delta, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: offset: %v", ErrBadTrace, err)
		}
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: size: %v", ErrBadTrace, err)
		}
		flag, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: flag: %v", ErrBadTrace, err)
		}
		prev += delta
		t.Accesses = append(t.Accesses, Access{Offset: prev, Size: int(size), Write: flag == 1})
	}
	return t, nil
}
