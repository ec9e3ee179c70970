package main

import "math/bits"

// hist is a log-linear latency histogram over nanosecond values: 128
// linear sub-buckets per power of two, so a bucket is at most 1/128 of
// its lower edge wide and a quantile read from it is within 1 % of the
// sorted-sample value. (telemetry.Histogram's power-of-two buckets put
// p50 = 256 and p99 = 512 on every BENCH_6..10 run while ns/op moved
// 50 %, which is why the harness does not use it.) Values below 128 ns
// get one bucket each. Not safe for concurrent use: each caller owns its
// histograms and the round merges them.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Values up to 2^40 ns (18 minutes) keep full resolution; larger ones
	// clamp into the last bucket.
	histMaxExp  = 40
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // v in [2^e, 2^(e+1))
	if e >= histMaxExp {
		return histBuckets - 1
	}
	sub := int(v>>(uint(e)-histSubBits)) & (histSub - 1)
	return (e-histSubBits+1)*histSub + sub
}

// histBounds returns bucket i's value range [lo, hi).
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	e := uint(i/histSub + histSubBits - 1)
	width := int64(1) << (e - histSubBits)
	l := int64(1)<<e + int64(i%histSub)*width
	return float64(l), float64(l + width)
}

func (h *hist) add(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolating linearly
// inside the bucket that holds the rank. An empty histogram reads 0.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	_, hi := histBounds(histBuckets - 1)
	return hi
}
