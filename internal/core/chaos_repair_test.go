package core

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lmp-project/lmp/internal/addr"
	"github.com/lmp-project/lmp/internal/failure"
)

// crashInjector is a FabricDelay hook that counts slice-sized transfers
// and crashes a chosen server when the count crosses a programmed
// threshold. The engine calls the hook outside every lock, so calling
// p.Crash — which takes p.mu — from inside the hook is safe. All state
// is atomic because repair workers invoke the hook concurrently.
type crashInjector struct {
	calls  atomic.Int64
	at     atomic.Int64 // crash when calls crosses this; <0 disarms
	target atomic.Int64
	pool   atomic.Pointer[Pool]
	fired  atomic.Bool
	sleep  time.Duration
}

func newCrashInjector(sleep time.Duration) *crashInjector {
	ci := &crashInjector{sleep: sleep}
	ci.at.Store(-1)
	return ci
}

// arm programs the next crash: after n more hook calls, server s dies.
func (ci *crashInjector) arm(p *Pool, s addr.ServerID, n int64) {
	ci.pool.Store(p)
	ci.target.Store(int64(s))
	ci.fired.Store(false)
	ci.at.Store(ci.calls.Load() + n)
}

func (ci *crashInjector) hook() {
	n := ci.calls.Add(1)
	if at := ci.at.Load(); at >= 0 && n >= at && ci.fired.CompareAndSwap(false, true) {
		if p := ci.pool.Load(); p != nil {
			// Error ignored: the target may already be dead in racy
			// schedules, which is fine — the injector fires at most once.
			_ = p.Crash(addr.ServerID(ci.target.Load()))
		}
	}
	if ci.sleep > 0 {
		time.Sleep(ci.sleep)
	}
}

// TestChaosRepairConcurrentForeground runs crash + parallel RepairServer
// concurrently with foreground writes, read-verifies, and migrations
// from four workers, each owning a disjoint buffer with a private
// shadow model. Every read that succeeds must return the worker's own
// last write — a stale read means a commit window published a backing
// before its bytes were complete. A second server is crashed from
// inside the repair's fabric-delay hook to exercise the mid-repair
// failure path.
func TestChaosRepairConcurrentForeground(t *testing.T) {
	const (
		servers = 8
		workers = 4
		iters   = 300
	)
	ci := newCrashInjector(50 * time.Microsecond)
	cfg := Config{
		Protection: failure.Policy{Scheme: failure.Replicate, Copies: 3},
		Repair:     RepairConfig{Parallelism: 4, FabricDelay: ci.hook},
	}
	for i := 0; i < servers; i++ {
		cfg.Servers = append(cfg.Servers, ServerConfig{
			Capacity:    24 * SliceSize,
			SharedBytes: 24 * SliceSize,
		})
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	type worker struct {
		buf     *Buffer
		content []byte
		rng     *rand.Rand
	}
	ws := make([]*worker, workers)
	for i := range ws {
		b, err := p.Alloc(2*SliceSize, addr.ServerID(i%servers))
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = &worker{buf: b, content: make([]byte, 2*SliceSize), rng: rand.New(rand.NewSource(int64(1000 + i)))}
	}

	var deadMu sync.Mutex
	dead := map[addr.ServerID]bool{}
	markDead := func(s addr.ServerID) {
		deadMu.Lock()
		dead[s] = true
		deadMu.Unlock()
	}
	liveServer := func(rng *rand.Rand) addr.ServerID {
		deadMu.Lock()
		defer deadMu.Unlock()
		for {
			s := addr.ServerID(rng.Intn(servers))
			if !dead[s] {
				return s
			}
		}
	}

	var wg sync.WaitGroup
	for wi, w := range ws {
		wi, w := wi, w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				switch w.rng.Intn(10) {
				case 0, 1, 2, 3: // write within a single slice (atomic wrt failure)
					slice := w.rng.Intn(2)
					off := slice*SliceSize + w.rng.Intn(SliceSize-4096)
					n := w.rng.Intn(4096) + 1
					data := make([]byte, n)
					w.rng.Read(data)
					if err := p.Write(liveServer(w.rng), w.buf.Addr()+addr.Logical(off), data); err != nil {
						t.Errorf("worker %d iter %d: write: %v", wi, it, err)
						return
					}
					copy(w.content[off:], data)
				case 4, 5, 6, 7: // read + verify own contents
					off := w.rng.Intn(len(w.content) - 1)
					n := w.rng.Intn(len(w.content)-off) + 1
					got := make([]byte, n)
					if err := p.Read(liveServer(w.rng), w.buf.Addr()+addr.Logical(off), got); err != nil {
						t.Errorf("worker %d iter %d: read: %v", wi, it, err)
						return
					}
					if !bytes.Equal(got, w.content[off:off+n]) {
						t.Errorf("worker %d iter %d: STALE READ at off=%d n=%d during repair", wi, it, off, n)
						return
					}
				default: // migrate one of our slices; contention errors are fine
					s := addr.SliceOf(w.buf.Addr()) + uint64(w.rng.Intn(2))
					_ = p.MigrateSlice(s, liveServer(w.rng))
				}
			}
		}()
	}

	// Let the workers build up state, then crash the owner of worker
	// 0's buffer and repair it with the second victim armed to die
	// mid-repair.
	time.Sleep(2 * time.Millisecond)
	victim, err := p.OwnerOf(ws[0].buf.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Crash(victim); err != nil {
		t.Fatal(err)
	}
	markDead(victim)

	victim2 := (victim + 1) % servers
	ci.arm(p, victim2, 10)
	_, _ = p.RepairServer(victim) // may surface ErrServerDead from the second crash
	markDead(victim2)
	_, _ = p.RepairServer(victim2)

	wg.Wait()
	if t.Failed() {
		return
	}

	// Sweep until both repairs run clean: a rebuild may have re-homed
	// onto victim2 in the window before it died.
	for i := 0; i < 8; i++ {
		_, e1 := p.RepairServer(victim)
		_, e2 := p.RepairServer(victim2)
		if e1 == nil && e2 == nil {
			break
		}
		if i == 7 {
			t.Fatalf("repairs did not converge: %v / %v", e1, e2)
		}
	}

	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	for wi, w := range ws {
		got := make([]byte, len(w.content))
		if err := p.Read(liveServer(w.rng), w.buf.Addr(), got); err != nil {
			t.Fatalf("worker %d final readback: %v", wi, err)
		}
		if !bytes.Equal(got, w.content) {
			t.Fatalf("worker %d: bytes lost across crash+repair", wi)
		}
	}
}
