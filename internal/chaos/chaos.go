// Package chaos is the deterministic fault-injection layer for the LMP
// runtime. An Injector couples a seeded random source to the simulation
// clock and produces two kinds of fault, both replayable: the same seed
// and schedule yield the same fault sequence and the same event trace,
// byte for byte.
//
//   - Crash-stop server failures, scheduled on the sim engine (CrashAt,
//     RestoreAt). The pool's harnesses hang Pool.Crash on them (OnCrash).
//   - Connection faults on real sockets, where a transport exists: a
//     Proxy forwards loopback TCP connections to one server, and the
//     injector cuts or stalls them at a seeded byte count (Proxy.Arm) and
//     resets every one of them while the server is crashed.
//
// A fault is a socket fault: nothing here fabricates a call's error. The
// transport reports what a cut or reset connection does to its calls.
//
// The injector never reads wall-clock time; every timestamp is simulated
// (the package is gated by the simtime analyzer). The proxy's pumps end
// when their sockets close, and a stall waits on a channel.
package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"github.com/lmp-project/lmp/internal/sim"
	"github.com/lmp-project/lmp/internal/telemetry"
)

// FaultKind names one kind of injected fault in the event trace.
type FaultKind int

const (
	// FaultCrash is a crash-stop server failure.
	FaultCrash FaultKind = iota
	// FaultRestore returns a crashed server to service.
	FaultRestore
	// FaultCut forwards k more bytes one way through a proxy, then
	// closes the connection.
	FaultCut
	// FaultStall forwards k more bytes one way through a proxy, then
	// holds that direction until the connection is reset.
	FaultStall
)

var faultNames = [...]string{FaultCrash: "crash", FaultRestore: "restore", FaultCut: "cut", FaultStall: "stall"}

func (k FaultKind) String() string {
	if k >= 0 && int(k) < len(faultNames) {
		return faultNames[k]
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// event is one entry in the injector's trace.
type event struct {
	at     sim.Time
	kind   FaultKind
	server int
	detail string
}

func (e event) String() string {
	if e.detail == "" {
		return fmt.Sprintf("%v %v srv=%d", e.at, e.kind, e.server)
	}
	return fmt.Sprintf("%v %v srv=%d %s", e.at, e.kind, e.server, e.detail)
}

// Config tunes an Injector.
type Config struct {
	// Seed fixes the random source. Equal seeds replay identical fault
	// sequences.
	Seed int64
	// Metrics receives fault counters; nil allocates a private registry.
	Metrics *telemetry.Registry
}

// Injector produces deterministic faults against the simulation clock.
// Methods are safe for concurrent use; determinism is only guaranteed
// when calls arrive in a deterministic order (single-goroutine harnesses
// or externally ordered drivers).
type Injector struct {
	eng *sim.Engine

	mu      sync.Mutex
	rng     *rand.Rand
	crashed map[int]bool
	proxies []*Proxy
	trace   []event

	// OnCrash, when set, runs inside each scheduled crash event (the
	// pool's harnesses point it at Pool.Crash). Set it before the engine
	// runs.
	OnCrash func(server int)

	crashes *telemetry.Counter
}

// New builds an injector over the engine's clock.
func New(eng *sim.Engine, cfg Config) *Injector {
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Injector{
		eng:     eng,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		crashed: make(map[int]bool),
		crashes: reg.Counter("chaos.crashes"),
	}
}

// record appends a trace event stamped with the current sim time. Caller
// holds in.mu.
func (in *Injector) record(kind FaultKind, server int, detail string) {
	in.trace = append(in.trace, event{at: in.eng.Now(), kind: kind, server: server, detail: detail})
}

// CrashAt schedules a crash-stop failure of server at sim time t: every
// connection proxied to it is reset, the faults armed on its proxies are
// dropped, and its proxies refuse new connections until the restore. The
// returned handle cancels the crash while it is still pending.
func (in *Injector) CrashAt(t sim.Time, server int) *sim.Scheduled {
	return in.eng.Schedule(t, func() {
		in.mu.Lock()
		if in.crashed[server] {
			in.mu.Unlock()
			return
		}
		in.crashed[server] = true
		in.record(FaultCrash, server, "")
		for _, p := range in.proxies {
			if p.server == server {
				p.resetLocked()
			}
		}
		in.mu.Unlock()
		in.crashes.Inc()
		if in.OnCrash != nil {
			in.OnCrash(server)
		}
	})
}

// RestoreAt schedules server's return to service at sim time t: its
// proxies accept connections again. Harnesses cancel the handle if the
// server crashes again inside the window.
func (in *Injector) RestoreAt(t sim.Time, server int) *sim.Scheduled {
	return in.eng.Schedule(t, func() {
		in.mu.Lock()
		defer in.mu.Unlock()
		if in.crashed[server] {
			delete(in.crashed, server)
			in.record(FaultRestore, server, "")
		}
	})
}

// TraceString renders the fault trace so far, one event per line — the
// canonical form harnesses compare across replays of one seed.
func (in *Injector) TraceString() string {
	in.mu.Lock()
	defer in.mu.Unlock()
	var sb strings.Builder
	for _, e := range in.trace {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
