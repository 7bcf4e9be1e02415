package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond the tail percentile: the
// benchmark reports the highest percentile that at least this many samples
// exceed, so the tail is never a single outlier.
const tailBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the middle two for an
// even count), or 0 for no values.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPercentile returns the highest nearest-rank percentile of xs that at
// least tailBeyond samples exceed, and that percentile. The nearest-rank
// p-th percentile is the k-th smallest value with k = ceil(p/100 * n), so
// the highest p leaving n-k >= tailBeyond samples beyond it is p = 100(n-10)/n.
// With too few samples for any such percentile it falls back to the median
// rank.
func tailPercentile(xs []float64) (value, pct float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	k := max(n-tailBeyond, (n+1)/2)
	return s[k-1], 100 * float64(k) / float64(n)
}

// quartiles returns the first and third quartiles of xs by Python's
// statistics.quantiles(xs, n=4) default ("exclusive") method, so spreads
// computed here match the ones the acceptance check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// geomean returns the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
