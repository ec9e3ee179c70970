//go:build race

package rpc

// Race-detector builds overwrite every request Release recycles: whoever
// still reads or sends it after its release sees 0xDB bytes, which the
// ownership tests check for, and whoever still writes it races the next
// owner under the detector.
func poison(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}
