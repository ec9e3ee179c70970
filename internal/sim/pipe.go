package sim

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
