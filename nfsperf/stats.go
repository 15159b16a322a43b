package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is sorted in place. Empty input gives NaN.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// median is quantile(xs, 0.5) over the values that are not NaN.
func median(xs []float64) float64 {
	vals := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			vals = append(vals, x)
		}
	}
	return quantile(vals, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
