package main

import (
	"math"
	"slices"
)

// percentile returns the value at quantile q of the latencies, in
// microseconds: the sample at rank ⌈q·n⌉, so with n samples the top
// (1-q)·n of them lie at or beyond it. 0 when there are none. It sorts
// lat in place — nothing reads the samples in issue order — so asking for
// a second percentile of the same phase costs one pass, not another sort.
func percentile(lat []uint32, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	slices.Sort(lat)
	i := int(math.Ceil(q*float64(len(lat)))) - 1
	return float64(lat[min(max(i, 0), len(lat)-1)]) / 1e3
}

// tailQuantile is the highest of the usual percentiles that still has at
// least ten samples beyond it, for n samples.
func tailQuantile(n int) float64 {
	best := 0.5
	for _, q := range []float64{0.9, 0.99, 0.999, 0.9999, 0.99999} {
		if float64(n)*(1-q) >= 10 {
			best = q
		}
	}
	return best
}

// median is the middle value of v, or the mean of the middle two.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}
