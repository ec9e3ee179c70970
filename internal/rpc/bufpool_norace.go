//go:build !race

package rpc

// poison is the race build's use-after-release trap (bufpool_race.go);
// ordinary builds put a buffer back untouched.
func poison([]byte) {}
