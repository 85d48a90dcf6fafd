package bench

import (
	"fmt"

	"sparsetask/internal/autotune"
	"sparsetask/internal/cachesim"
	"sparsetask/internal/sim"
)

// runLocality regenerates the §5.2 locality evidence on the simulator: it
// holds the machine, task costs, and dispatch overhead fixed and flips only
// the stealing topology (sim.StealPolicy hierarchical vs uniform-random),
// comparing simulated LLC misses and cross-domain lines — the controlled
// version of the paper's claim that locality-aware stealing, not raw load
// balance, drives the cache-miss gap. Locality needs threads pinned to
// cores, which goroutines are not, so there is no live-backend half.
func runLocality(cfg *Config) (*Report, error) {
	r := newReport("locality", "Hierarchical vs uniform stealing on the EPYC profile",
		"Case", "Blocks", "Remote%", "L3(hier)", "L3(rand)", "Miss redux")
	specs, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	if len(cfg.Matrices) == 0 && len(specs) > 4 {
		specs = specs[:4]
	}
	mc := newMatrixCache(cfg)
	iters := cfg.iters(3)

	mach, err := scaledMachine("epyc", cfg.Preset)
	if err != nil {
		return nil, err
	}
	scale := cfg.Preset.OverheadScale()
	var reductions []float64
	for _, s := range specs {
		coo := mc.get(s)
		bc := clampBC(96, coo.Rows)
		g, err := autotune.IterationGraph(coo, autotune.Lanczos, bc)
		if err != nil {
			return nil, err
		}
		// Both arms attribute misses to the accessing domain.
		measure := func(hier bool) (cachesim.Counters, error) {
			p := sim.NewSteal(mach.Cores, mach.NUMADomains, hier, uint64(cfg.Seed)+1)
			p.Scale = scale
			s := firstTouchSim(mach, g, p)
			s.H.DomainAware = true
			_, ctr, err := s.Measure(g, p, iters, nil)
			return ctr, err
		}
		hier, err := measure(true)
		if err != nil {
			return nil, err
		}
		rand, err := measure(false)
		if err != nil {
			return nil, err
		}
		redux := float64(rand.L3Miss) / float64(maxI64(hier.L3Miss, 1))
		reductions = append(reductions, redux)
		r.addRow("sim/"+s.Name, fmt.Sprintf("%d", bc),
			fmt.Sprintf("%.1f", 100*remoteShare(hier)),
			fmt.Sprintf("%d", hier.L3Miss), fmt.Sprintf("%d", rand.L3Miss), fmtX(redux))
		r.Metrics["sim/"+s.Name+"/l3_hier"] = float64(hier.L3Miss)
		r.Metrics["sim/"+s.Name+"/l3_rand"] = float64(rand.L3Miss)
		r.Metrics["sim/"+s.Name+"/remote_share_hier"] = remoteShare(hier)
		r.Metrics["sim/"+s.Name+"/remote_share_rand"] = remoteShare(rand)
		r.Metrics["sim/"+s.Name+"/reduction"] = redux
	}
	r.Metrics["geomean_l3_reduction"] = geoMean(reductions)
	r.note("same machine and overheads in both arms; only the steal topology flips")
	r.note("shape to hold: hierarchical stealing strictly fewer L3 misses and a lower remote share than uniform-random stealing on every matrix")
	return r, nil
}

// remoteShare is the fraction of LLC misses served cross-domain, from the
// per-accessing-domain breakdown.
func remoteShare(c cachesim.Counters) float64 {
	var miss, remote int64
	for d := range c.ByDomain {
		miss += c.ByDomain[d].L3Miss
		remote += c.ByDomain[d].Remote
	}
	if miss == 0 {
		return 0
	}
	return float64(remote) / float64(miss)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
