package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. It returns NaN for an empty
// sample and does not reorder xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest percentile of a sample with at least ten
// samples beyond it (p90 at 100 samples, p99 at 1000), or NaN when the
// sample has fewer than forty values and so supports no tail.
func tailQuantile(xs []float64) (q float64, value float64) {
	if len(xs) < 40 {
		return 0, math.NaN()
	}
	q = 1 - 10/float64(len(xs))
	if q > 0.99 {
		q = 0.99
	}
	return q, quantile(xs, q)
}

// finite maps NaN and infinities (an empty sample) to 0 for JSON output.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
