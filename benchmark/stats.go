package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, the median and the third quartile of
// v by the rule Python's statistics.quantiles(v, n=4) uses (exclusive method:
// the j-th cut point sits at position j·(len+1)/4 of the sorted sample), so
// the spreads this program prints are the ones the PR driver computes. A
// sample of one returns that value three times.
func quartiles(v []float64) (q1, med, q3 float64) {
	if len(v) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := sortedCopy(v)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(j int) float64 {
		pos := float64(j) * float64(n+1) / 4 // 1-based position
		lo := int(math.Floor(pos))
		if lo < 1 {
			lo = 1
		}
		if lo > n-1 {
			lo = n - 1
		}
		frac := pos - float64(lo)
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// tails are the conventional tail percentiles, highest first, with the share
// of samples beyond each in thousandths.
var tails = []struct {
	percent   float64
	beyondPPT int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}, {75, 250}}

// tailPercent returns the highest conventional percentile that still has at
// least ten of n samples beyond it — the tail a sample of that size can
// support. Below forty samples none qualifies and it returns 50.
func tailPercent(n int) float64 {
	for _, t := range tails {
		if n*t.beyondPPT >= 10*1000 {
			return t.percent
		}
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}
