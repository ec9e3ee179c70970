//go:build !race

package daemon

// raceDetectorEnabled reports whether this test binary was built with
// the race detector; see TestWirePathAllocBudget.
const raceDetectorEnabled = false
