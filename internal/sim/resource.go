package sim

// Resource is a counted resource with FIFO admission: at most Capacity
// holders at a time, waiters granted in arrival order. It models things
// like a core's outstanding-miss registers or a link's credit pool.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	waiters  []func()
}

// NewResource returns a resource with the given capacity attached to eng.
// Capacity must be positive.
func NewResource(eng *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{eng: eng, capacity: capacity}
}

// InUse reports the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

// Capacity reports the resource capacity.
func (r *Resource) Capacity() int { return r.capacity }

// Utilization reports inUse/capacity in [0,1].
func (r *Resource) Utilization() float64 {
	return float64(r.inUse) / float64(r.capacity)
}

// Acquire requests one unit; granted calls back (possibly immediately, as a
// scheduled zero-delay event) once the unit is held.
func (r *Resource) Acquire(granted func()) {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.inUse++
		r.eng.After(0, granted)
		return
	}
	r.waiters = append(r.waiters, granted)
}

// Release returns one unit and grants the head waiter, if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource")
	}
	if len(r.waiters) > 0 {
		next := r.waiters[0]
		copy(r.waiters, r.waiters[1:])
		r.waiters = r.waiters[:len(r.waiters)-1]
		r.eng.After(0, next)
		return
	}
	r.inUse--
}

// Pipe is a FIFO store-and-forward bandwidth server: transfers are serviced
// one after another, each occupying the pipe for size/rate seconds. It
// models a memory channel or fabric link direction at flit granularity.
// Busy time is tracked in fractional nanoseconds so that sub-nanosecond
// service times (a 64B line on a 97GB/s channel takes 0.66ns) accumulate
// exactly; only the completion event is rounded to the engine's
// nanosecond clock.
type Pipe struct {
	eng *Engine
	// BytesPerSecond is the service rate.
	BytesPerSecond float64

	busyUntilNS float64 // fractional ns timestamp of last scheduled completion
	busyTotalNS float64 // accumulated busy time for utilization accounting
	observedAt  Time
	bytesServed uint64
}

// NewPipe returns a pipe with the given service rate attached to eng.
func NewPipe(eng *Engine, bytesPerSecond float64) *Pipe {
	if bytesPerSecond <= 0 {
		panic("sim: pipe rate must be positive")
	}
	return &Pipe{eng: eng, BytesPerSecond: bytesPerSecond}
}

// Transfer enqueues a transfer of size bytes and calls done when the last
// byte has been serviced. Queueing delay emerges from pipe occupancy.
func (p *Pipe) Transfer(size int, done func()) {
	service := float64(size) / p.BytesPerSecond * 1e9
	start := float64(p.eng.Now())
	if p.busyUntilNS > start {
		start = p.busyUntilNS
	}
	finish := start + service
	p.busyUntilNS = finish
	p.busyTotalNS += service
	p.bytesServed += uint64(size)
	at := Time(finish)
	if at < p.eng.Now() {
		at = p.eng.Now()
	}
	p.eng.At(at, done)
}

// QueueDelay reports how long a transfer issued now would wait before
// service begins.
func (p *Pipe) QueueDelay() Duration {
	now := float64(p.eng.Now())
	if p.busyUntilNS <= now {
		return 0
	}
	return Duration(p.busyUntilNS - now)
}

// Utilization reports the fraction of time the pipe has been busy since the
// last call to ResetStats (or engine start).
func (p *Pipe) Utilization() float64 {
	elapsed := p.eng.Now().Sub(p.observedAt)
	if elapsed <= 0 {
		return 0
	}
	u := p.busyTotalNS / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}

// BytesServed reports the total bytes serviced since the last ResetStats.
func (p *Pipe) BytesServed() uint64 { return p.bytesServed }

// ResetStats zeroes utilization and byte counters.
func (p *Pipe) ResetStats() {
	p.busyTotalNS = 0
	p.bytesServed = 0
	p.observedAt = p.eng.Now()
}
