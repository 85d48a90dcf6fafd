// Package perfprofile computes performance profiles (Dolan & Moré), the
// presentation the paper's Fig. 14 uses to compare block-count heuristics:
// for each configuration, the fraction of problem instances on which it is
// within a factor τ of the best configuration for that instance.
package perfprofile

import (
	"fmt"
	"math"
	"sort"
)

// Table holds execution times: Times[config][instance]. A non-positive or
// NaN entry marks a failed run and is treated as infinitely slow.
type Table struct {
	Configs   []string
	Instances []string
	Times     [][]float64
}

// NewTable allocates a table for the given axes.
func NewTable(configs, instances []string) *Table {
	t := &Table{Configs: configs, Instances: instances}
	t.Times = make([][]float64, len(configs))
	for i := range t.Times {
		t.Times[i] = make([]float64, len(instances))
	}
	return t
}

// Set records the time of config c on instance k.
func (t *Table) Set(c, k int, v float64) { t.Times[c][k] = v }

// Ratios returns r[c][k] = time(c,k)/best(k). Failed entries become +Inf.
func (t *Table) Ratios() ([][]float64, error) {
	nc, nk := len(t.Configs), len(t.Instances)
	if nc == 0 || nk == 0 {
		return nil, fmt.Errorf("perfprofile: empty table")
	}
	r := make([][]float64, nc)
	for c := range r {
		r[c] = make([]float64, nk)
	}
	for k := 0; k < nk; k++ {
		best := math.Inf(1)
		for c := 0; c < nc; c++ {
			v := t.Times[c][k]
			if v > 0 && !math.IsNaN(v) && v < best {
				best = v
			}
		}
		if math.IsInf(best, 1) {
			return nil, fmt.Errorf("perfprofile: no successful run for instance %s", t.Instances[k])
		}
		for c := 0; c < nc; c++ {
			v := t.Times[c][k]
			if v > 0 && !math.IsNaN(v) {
				r[c][k] = v / best
			} else {
				r[c][k] = math.Inf(1)
			}
		}
	}
	return r, nil
}

// Profile is one configuration's curve: Rho(tau) = fraction of instances
// with ratio <= tau.
type Profile struct {
	Config string
	// SortedRatios are the instance ratios ascending; Rho is evaluated by
	// binary search over them.
	SortedRatios []float64
}

// Rho returns the fraction of instances within factor tau of the best.
func (p Profile) Rho(tau float64) float64 {
	n := sort.SearchFloat64s(p.SortedRatios, math.Nextafter(tau, math.Inf(1)))
	return float64(n) / float64(len(p.SortedRatios))
}

// AUC returns the area under the profile over [1, tauMax]: a scalar summary
// for ranking heuristics (higher is better).
func (p Profile) AUC(tauMax float64) float64 {
	if tauMax <= 1 {
		return 0
	}
	// Piecewise-constant integration over the sorted ratios.
	var area float64
	prev := 1.0
	for _, r := range p.SortedRatios {
		if r > tauMax {
			break
		}
		if r > prev {
			area += p.Rho(prev) * (r - prev)
			prev = r
		}
	}
	area += p.Rho(tauMax) * (tauMax - prev)
	return area / (tauMax - 1)
}

// Compute builds one profile per configuration.
func Compute(t *Table) ([]Profile, error) {
	ratios, err := t.Ratios()
	if err != nil {
		return nil, err
	}
	out := make([]Profile, len(t.Configs))
	for c := range t.Configs {
		sr := append([]float64(nil), ratios[c]...)
		sort.Float64s(sr)
		out[c] = Profile{Config: t.Configs[c], SortedRatios: sr}
	}
	return out, nil
}
