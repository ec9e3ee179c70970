//go:build race

package daemon

// raceDetectorEnabled reports whether this test binary was built with
// the race detector: sync.Pool drops a share of its puts under it, so
// the allocation budget of TestWirePathAllocBudget holds only without.
const raceDetectorEnabled = true
