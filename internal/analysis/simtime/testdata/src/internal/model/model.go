// Package model is a fixture for the paper's model, gated as a whole
// package: its discrete-event replay must stay deterministic.
package model

import "time"

func replayNow() int64 {
	return time.Now().UnixNano() // want "time.Now reads the wall clock"
}
