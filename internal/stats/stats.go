// Package stats provides the small numeric helpers the harness uses to
// aggregate and present results.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Geomean returns the geometric mean of positive values; it returns 0 for
// an empty slice and panics on non-positive inputs (a normalized speedup of
// zero indicates a harness bug).
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: non-positive value %v in geomean", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median (0 for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// Percentile returns the q-quantile (0 < q <= 1) of xs by the nearest-rank
// rule: the k-th smallest value with k = ceil(q*n), so the p50 of [1 2 3]
// is 2 and the p99 of 150 values is the 149th. It returns 0 for empty
// input; xs need not be sorted.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	k := int(math.Ceil(q * float64(len(ys))))
	k = max(1, min(k, len(ys)))
	return ys[k-1]
}

// MonotoneUp reports whether xs is non-decreasing within tolerance tol
// (relative): xs[i+1] >= xs[i]*(1-tol).
func MonotoneUp(xs []float64, tol float64) bool {
	for i := 0; i+1 < len(xs); i++ {
		if xs[i+1] < xs[i]*(1-tol) {
			return false
		}
	}
	return true
}
