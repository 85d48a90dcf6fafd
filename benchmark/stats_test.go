package main

import (
	"math"
	"testing"
)

// The expected values are what Python's statistics.quantiles(v, n=4) prints,
// the rule the PR driver applies to ten runs.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1.2, 3.4, 0.5, 9.9, 4.4, 2.2, 7.1, 6.3, 5.5, 8.0}, [3]float64{1.95, 4.95, 7.325}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{5, 1, 9, 3, 7, 2, 8}, [3]float64{2, 5, 8}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.in)
		for i, got := range []float64{q1, med, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.in, i, got, c.want[i])
			}
		}
	}
}

// The tail a sample supports is the highest percentile with at least ten
// samples beyond it.
func TestTailPercent(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{8, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercent(c.n); got != c.want {
			t.Errorf("tailPercent(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for p, want := range map[float64]float64{50: 5, 90: 9, 95: 10, 10: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}
