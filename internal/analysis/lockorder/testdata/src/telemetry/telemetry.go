// Package telemetry is a fixture stand-in for internal/telemetry: the
// lockorder analyzer matches BeginUpdate/EndUpdate and the raw
// runtime_procPin pair by canonical-name suffix, so this mirror of the
// real pin entry points exercises the proc-pin rule.
package telemetry

func runtime_procPin() int
func runtime_procUnpin()

// BeginUpdate pins the goroutine to its P and returns the lane hint.
// It is a wrapper around the pin — no EndUpdate in its body — so the
// pin it takes is held only to its own end.
func BeginUpdate() int { return runtime_procPin() }

// EndUpdate releases the pin.
func EndUpdate() { runtime_procUnpin() }

var lanes [8]uint64

// GoodAdd is the intended shape: pin, bump a fixed-size lane, unpin.
func GoodAdd(n uint64) {
	h := BeginUpdate()
	lanes[h&7] += n
	EndUpdate()
}

// RawPair exercises the raw runtime pin pair, with a channel wait
// inside the region.
func RawPair(ch chan int) {
	runtime_procPin()
	<-ch // want "proc-pin lock held across a blocking channel operation: .*channel receive"
	runtime_procUnpin()
}
