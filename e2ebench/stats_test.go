package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helpers must sort
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n     int
		wantP float64
		ok    bool
	}{
		{5, 0, false},   // the median has 2 beyond
		{20, 50, true},  // rank 10, 10 beyond
		{39, 50, true},  // p75: rank 30, 9 beyond
		{40, 75, true},  // p75: rank 30, 10 beyond
		{99, 75, true},  // p90: rank 90, 9 beyond
		{100, 90, true}, // p90: rank 90, 10 beyond
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		p, v, ok := tailPercentile(seq(c.n))
		if ok != c.ok || p != c.wantP {
			t.Errorf("n=%d: got p%v ok=%v, want p%v ok=%v", c.n, p, ok, c.wantP, c.ok)
			continue
		}
		if ok {
			if want := float64(rank(c.n, p)); v != want {
				t.Errorf("n=%d: p%v = %v, want %v", c.n, p, v, want)
			}
			if b := beyond(c.n, p); b < minBeyond {
				t.Errorf("n=%d: p%v has only %d samples beyond", c.n, p, b)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := sorted(seq(10)) // 1..10
	for p, want := range map[float64]float64{10: 1, 50: 5, 90: 9, 91: 10, 100: 10} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if m := median(seq(5)); m != 3 {
		t.Errorf("median of 1..5 = %v", m)
	}
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median of 1..4 = %v", m)
	}
	// Reference values from Python: statistics.quantiles(range(1, 11), n=4)
	// == [2.75, 5.5, 8.25], and for [1, 2, 4, 8] == [1.25, 3.0, 7.0].
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{8, 1, 4, 2}, 1.25, 3, 7},
		{[]float64{3, 3}, 3, 3, 3},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if s := spread(seq(10)); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", s)
	}
}
