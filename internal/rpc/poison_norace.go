//go:build !race

package rpc

// poison is the race build's use-after-release trap (poison_race.go);
// ordinary builds recycle a request untouched.
func poison([]byte) {}
