package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported high
// percentile; a p99 needs at least 1,000 samples.
const minBeyond = 10

// quantile is a nearest-rank percentile with the sample count it rests
// on and the number of samples ranked above it.
type quantile struct {
	Value  float64
	N      int
	Beyond int
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted,
// which must be ascending. It fails when fewer than minBeyond samples lie
// beyond the quantile, so a reported tail always rests on real samples.
func percentile(sorted []float64, q float64) (quantile, error) {
	n := len(sorted)
	if n == 0 {
		return quantile{}, fmt.Errorf("percentile of no samples")
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	p := quantile{Value: sorted[rank-1], N: n, Beyond: n - rank}
	if q < 1 && p.Beyond < minBeyond {
		return p, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", q*100, n, p.Beyond, minBeyond)
	}
	return p, nil
}

// median returns the middle of xs (the mean of the two middle values for
// an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first, second and third quartile of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the rule
// the steadiness check is judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		switch {
		case j < 1:
			j, delta = 1, 0
		case j > n-1:
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
