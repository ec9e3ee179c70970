package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/alloc"
	"github.com/lmp-project/lmp/internal/failure"
)

// shadowBuf mirrors one live buffer's expected contents.
type shadowBuf struct {
	buf     *Buffer
	content []byte
}

// TestPoolRandomizedIntegrity drives the pool through thousands of random
// operations — allocate, write, read, migrate, balance, release — with a
// shadow model checking every byte. Protection is 2-way replication, and
// midway through, a random server crashes; all subsequent reads must
// still match the shadow (masked through replicas).
func TestPoolRandomizedIntegrity(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			const servers = 4
			cfg := Config{
				Placement:  alloc.Policy(rng.Intn(4)),
				Protection: failure.Policy{Scheme: failure.Replicate, Copies: 2},
			}
			for i := 0; i < servers; i++ {
				cfg.Servers = append(cfg.Servers, ServerConfig{
					Capacity:    32 * SliceSize,
					SharedBytes: 32 * SliceSize,
				})
			}
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}

			var live []*shadowBuf
			crashed := -1
			liveServer := func() addr.ServerID {
				for {
					s := addr.ServerID(rng.Intn(servers))
					if int(s) != crashed {
						return s
					}
				}
			}

			for op := 0; op < 2000; op++ {
				switch r := rng.Intn(100); {
				case r < 15: // alloc (keep headroom so crash recovery can re-home)
					if p.FreePoolBytes() < 48*SliceSize {
						continue
					}
					size := int64(rng.Intn(3*SliceSize) + 1)
					b, err := p.Alloc(size, liveServer())
					if err != nil {
						continue // pool can be legitimately full
					}
					live = append(live, &shadowBuf{buf: b, content: make([]byte, size)})

				case r < 20 && len(live) > 0: // release
					i := rng.Intn(len(live))
					if err := live[i].buf.Release(); err != nil {
						t.Fatalf("op %d: release: %v", op, err)
					}
					live = append(live[:i], live[i+1:]...)

				case r < 50 && len(live) > 0: // write
					sb := live[rng.Intn(len(live))]
					if len(sb.content) == 0 {
						continue
					}
					off := rng.Intn(len(sb.content))
					n := rng.Intn(len(sb.content)-off) + 1
					data := make([]byte, n)
					rng.Read(data)
					if err := p.Write(liveServer(), sb.buf.Addr()+addr.Logical(off), data); err != nil {
						t.Fatalf("op %d: write: %v", op, err)
					}
					copy(sb.content[off:], data)

				case r < 85 && len(live) > 0: // read + verify
					sb := live[rng.Intn(len(live))]
					if len(sb.content) == 0 {
						continue
					}
					off := rng.Intn(len(sb.content))
					n := rng.Intn(len(sb.content)-off) + 1
					got := make([]byte, n)
					if err := p.Read(liveServer(), sb.buf.Addr()+addr.Logical(off), got); err != nil {
						t.Fatalf("op %d: read: %v", op, err)
					}
					if !bytes.Equal(got, sb.content[off:off+n]) {
						t.Fatalf("op %d: data mismatch at offset %d", op, off)
					}

				case r < 90 && len(live) > 0: // migrate one slice
					sb := live[rng.Intn(len(live))]
					s := addr.SliceOf(sb.buf.Addr()) + uint64(rng.Int63n(sb.buf.Range().Size/SliceSize))
					to := liveServer()
					if err := p.MigrateSlice(s, to); err != nil {
						// Target region may be full; that's allowed.
						continue
					}

				case r < 93: // balance round
					if _, err := p.BalanceOnce(); err != nil {
						t.Fatalf("op %d: balance: %v", op, err)
					}

				case r < 95 && crashed < 0 && op > 800: // one crash, once
					victim := rng.Intn(servers)
					if err := p.Crash(addr.ServerID(victim)); err != nil {
						t.Fatalf("op %d: crash: %v", op, err)
					}
					crashed = victim
				}
			}

			// Final full verification of every surviving buffer.
			for i, sb := range live {
				got := make([]byte, len(sb.content))
				if err := p.Read(liveServer(), sb.buf.Addr(), got); err != nil {
					t.Fatalf("final read of buffer %d: %v", i, err)
				}
				if !bytes.Equal(got, sb.content) {
					t.Fatalf("final content mismatch on buffer %d", i)
				}
			}
			checkResidentWithinUse(t, p)
		})
	}
}

// TestPoolRandomizedErasure repeats the lifecycle fuzz with RS(2,1)
// erasure coding instead of replication.
func TestPoolRandomizedErasure(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const servers = 4
	cfg := Config{
		Placement:  alloc.Striped,
		Protection: failure.Policy{Scheme: failure.ErasureCode, K: 2, M: 1},
	}
	for i := 0; i < servers; i++ {
		cfg.Servers = append(cfg.Servers, ServerConfig{
			Capacity:    32 * SliceSize,
			SharedBytes: 32 * SliceSize,
		})
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var live []*shadowBuf
	for i := 0; i < 4; i++ {
		size := int64(rng.Intn(3*SliceSize) + 1)
		b, err := p.Alloc(size, 0)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, &shadowBuf{buf: b, content: make([]byte, size)})
	}
	for op := 0; op < 300; op++ {
		sb := live[rng.Intn(len(live))]
		off := rng.Intn(len(sb.content))
		n := rng.Intn(len(sb.content)-off) + 1
		data := make([]byte, n)
		rng.Read(data)
		if err := p.Write(addr.ServerID(rng.Intn(servers)), sb.buf.Addr()+addr.Logical(off), data); err != nil {
			t.Fatalf("op %d: write: %v", op, err)
		}
		copy(sb.content[off:], data)
	}
	if err := p.Crash(1); err != nil {
		t.Fatal(err)
	}
	for i, sb := range live {
		got := make([]byte, len(sb.content))
		if err := p.Read(0, sb.buf.Addr(), got); err != nil {
			t.Fatalf("post-crash read of buffer %d: %v", i, err)
		}
		if !bytes.Equal(got, sb.content) {
			t.Fatalf("post-crash content mismatch on buffer %d", i)
		}
	}
}
