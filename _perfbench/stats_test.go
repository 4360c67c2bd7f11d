package main

import (
	"math"
	"slices"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileReportsCountAndBeyond(t *testing.T) {
	q, err := percentile(ramp(1000), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if q.Value != 990 || q.N != 1000 || q.Beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990, n 1000, beyond 10", q)
	}
	q, err = percentile(ramp(101), 0.5)
	if err != nil || q.Value != 51 || q.Beyond != 50 {
		t.Fatalf("p50 of 1..101 = %+v, %v; want 51 with 50 beyond", q, err)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	q, err := percentile(ramp(999), 0.99)
	if err == nil {
		t.Fatalf("p99 of 999 samples accepted with %d beyond", q.Beyond)
	}
	if q.N != 999 || q.Beyond != 9 {
		t.Fatalf("p99 of 999 samples = %+v, want n 999, beyond 9", q)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples accepted")
	}
}

// The steadiness rule is judged with Python's statistics.quantiles(xs,
// n=4); these values are what it returns.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{ramp(10), 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2, 5, 4}, 1.5, 3, 4.5},
		{[]float64{7, 1}, 1, 4, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestLeastStolenKeepsQuietReps(t *testing.T) {
	kept := func(steals ...float64) []int64 {
		var reps []repStats
		for i, steal := range steals {
			reps = append(reps, repStats{words: int64(i), steal: steal})
		}
		var got []int64
		for _, r := range leastStolen(reps) {
			got = append(got, r.words)
		}
		return got
	}
	// Three quiet reps of seven: the least-stolen half, four, is kept,
	// least steal first, ties in rep order.
	if got, want := kept(0.10, 0, 0.02, 0, 0.15, 0.005, 0), []int64{1, 3, 6, 5}; !slices.Equal(got, want) {
		t.Fatalf("leastStolen kept reps %v, want %v", got, want)
	}
	// Five quiet reps of seven: all five are kept.
	if got, want := kept(0.10, 0, 0.002, 0, 0.15, 0.005, 0), []int64{1, 3, 6, 2, 5}; !slices.Equal(got, want) {
		t.Fatalf("leastStolen kept reps %v, want %v", got, want)
	}
}
