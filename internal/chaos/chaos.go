// Package chaos is the deterministic fault-injection layer for the LMP
// runtime. An Injector couples a seeded random source to the simulation
// clock and produces crash-stop server failures, dropped / delayed /
// duplicated RPCs, and link degradation — all replayable: the same seed
// and schedule yield the same fault sequence and the same event trace,
// byte for byte.
//
// The injector never reads wall-clock time; every timestamp is simulated
// (the package is gated by the simtime analyzer). Harnesses drive it two
// ways: scheduled faults (CrashAt / RestoreAt / DegradeLinkAt place
// events on the sim engine) and per-call faults (WrapTransport interposes
// on an rpc.Caller and rolls drop/delay/dup per call).
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
	// FaultDegrade multiplies a server's link latency (Link0/Link1
	// asymmetry in the paper's fabric model).
	FaultDegrade
	// FaultDrop is a dropped call (surfaced as rpc.ErrTransient).
	FaultDrop
	// FaultDelay is a delayed call that still completed in time.
	FaultDelay
	// FaultTimeout is a delay that exceeded the call timeout.
	FaultTimeout
	// FaultDup is a duplicated call (delivered twice).
	FaultDup
	// FaultDead is a call rejected because the target is crashed.
	FaultDead
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultRestore:
		return "restore"
	case FaultDegrade:
		return "degrade"
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultTimeout:
		return "timeout"
	case FaultDup:
		return "dup"
	case FaultDead:
		return "dead"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Event is one entry in the injector's trace.
type Event struct {
	At     sim.Time
	Kind   FaultKind
	Server int
	Detail string
}

func (e Event) String() string {
	if e.Detail == "" {
		return fmt.Sprintf("%v %v srv=%d", e.At, e.Kind, e.Server)
	}
	return fmt.Sprintf("%v %v srv=%d %s", e.At, e.Kind, e.Server, e.Detail)
}

// Config tunes an Injector. Probabilities are per call; zero values mean
// the corresponding fault is never injected.
type Config struct {
	// Seed fixes the random source. Equal seeds replay identical fault
	// sequences.
	Seed int64
	// PDrop, PDelay, PDup are per-call probabilities of dropping,
	// delaying, and duplicating a wrapped transport call.
	PDrop, PDelay, PDup float64
	// MaxDelay bounds an injected delay (uniform in (0, MaxDelay]).
	MaxDelay sim.Duration
	// CallTimeout, when positive, turns any effective delay (after link
	// degradation) above it into a transient timeout failure.
	CallTimeout sim.Duration
	// Metrics receives fault counters; nil allocates a private registry.
	Metrics *telemetry.Registry
}

// Injector produces deterministic faults against the simulation clock.
// Methods are safe for concurrent use; determinism is only guaranteed
// when calls arrive in a deterministic order (single-goroutine harnesses
// or externally ordered drivers).
type Injector struct {
	eng *sim.Engine
	cfg Config

	mu      sync.Mutex
	rng     *rand.Rand
	crashed map[int]bool
	slow    map[int]float64
	trace   []Event

	// OnCrash and OnRestore, when set, run inside the scheduled crash /
	// restore events (the core harness points them at Pool.Crash and
	// RepairServer). Set them before the engine runs.
	OnCrash   func(server int)
	OnRestore func(server int)

	crashes *telemetry.Counter
	drops   *telemetry.Counter
	delays  *telemetry.Counter
	dups    *telemetry.Counter
}

// New builds an injector over the engine's clock.
func New(eng *sim.Engine, cfg Config) *Injector {
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &Injector{
		eng:     eng,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		crashed: make(map[int]bool),
		slow:    make(map[int]float64),
		crashes: reg.Counter("chaos.crashes"),
		drops:   reg.Counter("chaos.drops"),
		delays:  reg.Counter("chaos.delays"),
		dups:    reg.Counter("chaos.dups"),
	}
}

// Seed reports the injector's seed, for failure reports.
func (in *Injector) Seed() int64 { return in.cfg.Seed }

// Now reports the current simulated time.
func (in *Injector) Now() sim.Time { return in.eng.Now() }

// record appends a trace event stamped with the current sim time. Caller
// holds in.mu.
func (in *Injector) record(kind FaultKind, server int, detail string) {
	in.trace = append(in.trace, Event{At: in.eng.Now(), Kind: kind, Server: server, Detail: detail})
}

// CrashAt schedules a crash-stop failure of server at sim time t. The
// returned handle cancels the crash while it is still pending.
func (in *Injector) CrashAt(t sim.Time, server int) *sim.Scheduled {
	return in.eng.Schedule(t, func() {
		in.mu.Lock()
		already := in.crashed[server]
		in.crashed[server] = true
		if !already {
			in.record(FaultCrash, server, "")
		}
		in.mu.Unlock()
		if already {
			return
		}
		in.crashes.Inc()
		if in.OnCrash != nil {
			in.OnCrash(server)
		}
	})
}

// RestoreAt schedules server's return to service at sim time t. Harnesses
// cancel the handle if the server crashes again inside the window.
func (in *Injector) RestoreAt(t sim.Time, server int) *sim.Scheduled {
	return in.eng.Schedule(t, func() {
		in.mu.Lock()
		wasCrashed := in.crashed[server]
		delete(in.crashed, server)
		if wasCrashed {
			in.record(FaultRestore, server, "")
		}
		in.mu.Unlock()
		if wasCrashed && in.OnRestore != nil {
			in.OnRestore(server)
		}
	})
}

// DegradeLinkAt schedules server's link latency to be multiplied by
// factor from sim time t on (factor 1 restores full speed; e.g. 4 models
// the far Link1 hop of the paper's two-level fabric).
func (in *Injector) DegradeLinkAt(t sim.Time, server int, factor float64) *sim.Scheduled {
	if factor < 1 {
		factor = 1
	}
	return in.eng.Schedule(t, func() {
		in.mu.Lock()
		if factor == 1 {
			delete(in.slow, server)
		} else {
			in.slow[server] = factor
		}
		in.record(FaultDegrade, server, fmt.Sprintf("x%g", factor))
		in.mu.Unlock()
	})
}

// Crashed reports whether server is currently crash-stopped.
func (in *Injector) Crashed(server int) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed[server]
}

// Trace returns a copy of the fault trace so far.
func (in *Injector) Trace() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Event, len(in.trace))
	copy(out, in.trace)
	return out
}

// TraceString renders the trace one event per line — the canonical form
// harnesses compare across replays of one seed.
func (in *Injector) TraceString() string {
	var sb strings.Builder
	for _, e := range in.Trace() {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
