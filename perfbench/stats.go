package main

import (
	"math"
	"sort"
)

// beyondFloor is the least number of samples that must lie beyond a
// reported tail percentile for the tail to mean anything.
const beyondFloor = 10

// eps absorbs binary rounding of decimal percentiles such as 99.9.
const eps = 1e-9

// samplesBeyond counts the samples of n that lie strictly beyond
// percentile p (0 < p < 100).
func samplesBeyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(100-p)/100 + eps))
}

// minSamples is the least sample count for which percentile p has
// beyondFloor samples beyond it.
func minSamples(p float64) int {
	return int(math.Ceil(beyondFloor*100/(100-p) - eps))
}

// tailLadder lists the percentiles a tail is reported at, lowest first.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile returns the highest percentile of tailLadder that has
// at least beyondFloor of n samples beyond it, or 0 if none has.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if samplesBeyond(n, p) >= beyondFloor {
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }
