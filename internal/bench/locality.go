package bench

import (
	"context"
	"fmt"

	"sparsetask/internal/autotune"
	"sparsetask/internal/cachesim"
	"sparsetask/internal/rt"
	"sparsetask/internal/sim"
	"sparsetask/internal/solver"
	"sparsetask/internal/topo"
)

// execLocalityWorkers is the worker count for the live-backend half of the
// locality experiment: enough to populate all eight EPYC-profile domains
// (one worker each) without oversubscribing small CI hosts.
const execLocalityWorkers = 8

// localityBlockCounts are the per-dimension tile counts the live half sweeps,
// bracketing the §5.4 sweet spots.
var localityBlockCounts = []int{32, 64, 128}

// runLocality regenerates the §5.2 locality evidence in two halves.
//
// The exec/ rows run the real stealing backends under the EPYC topology
// profile and report where each backend *acquired* its tasks: Local%
// (own deque), Domain% (same-domain queues), Remote% (cross-domain steals),
// plus the domain-local share of affinity-carrying tasks. The sim/ rows hold
// the machine, task costs, and dispatch overhead fixed and flip only the
// stealing topology (sim.StealPolicy hierarchical vs uniform-random),
// comparing simulated LLC misses and cross-domain lines — the controlled
// version of the paper's claim that locality-aware stealing, not raw load
// balance, drives the cache-miss gap.
func runLocality(cfg *Config) (*Report, error) {
	r := newReport("locality", "Hierarchical vs uniform stealing on the EPYC profile",
		"Case", "Blocks", "Local%", "Domain%", "Remote%", "DomShare",
		"L3(hier)", "L3(rand)", "Miss redux")
	specs, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	if len(cfg.Matrices) == 0 && len(specs) > 4 {
		specs = specs[:4]
	}
	mc := newMatrixCache(cfg)
	iters := cfg.iters(3)

	// Part A: live backends. Percentages depend on real goroutine
	// interleaving, so they are reported, not asserted (a 1-CPU host lets a
	// lone runnable worker drain every queue itself).
	execCoo := mc.get(specs[0])
	for _, backend := range []string{"deepsparse", "hpx", "regent"} {
		for _, bc := range localityBlockCounts {
			block := (execCoo.Rows + bc - 1) / bc
			csb := execCoo.ToCSB(block)
			l, err := solver.NewLanczos(csb, 10)
			if err != nil {
				return nil, err
			}
			rtm, err := rt.ByName(backend, rt.Options{Workers: execLocalityWorkers, Topo: topo.EPYC()})
			if err != nil {
				return nil, err
			}
			if _, err := l.Run(context.Background(), rtm, cfg.Seed+1); err != nil {
				return nil, err
			}
			ls := rtm.(rt.LocalityReporter).Locality()
			tasks := ls.Tasks()
			if tasks == 0 {
				tasks = 1
			}
			pct := func(v int64) float64 { return 100 * float64(v) / float64(tasks) }
			share := ls.DomainLocalShare()
			r.addRow("exec/"+backend, fmt.Sprintf("%d", bc),
				fmt.Sprintf("%.1f", pct(ls.Local)), fmt.Sprintf("%.1f", pct(ls.Domain)),
				fmt.Sprintf("%.1f", pct(ls.Remote)), fmt.Sprintf("%.2f", share),
				"-", "-", "-")
			key := fmt.Sprintf("exec/%s/%d/", backend, bc)
			r.Metrics[key+"remote_pct"] = pct(ls.Remote)
			r.Metrics[key+"dom_share"] = share
		}
	}

	// Part B: steal-topology A/B on the simulator.
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
		r.addRow("sim/"+s.Name, fmt.Sprintf("%d", bc), "-", "-",
			fmt.Sprintf("%.1f", 100*remoteShare(hier)), "-",
			fmt.Sprintf("%d", hier.L3Miss), fmt.Sprintf("%d", rand.L3Miss), fmtX(redux))
		r.Metrics["sim/"+s.Name+"/l3_hier"] = float64(hier.L3Miss)
		r.Metrics["sim/"+s.Name+"/l3_rand"] = float64(rand.L3Miss)
		r.Metrics["sim/"+s.Name+"/remote_share_hier"] = remoteShare(hier)
		r.Metrics["sim/"+s.Name+"/remote_share_rand"] = remoteShare(rand)
		r.Metrics["sim/"+s.Name+"/reduction"] = redux
	}
	r.Metrics["geomean_l3_reduction"] = geoMean(reductions)
	r.note("exec/ rows: where the live backend acquired tasks (8 workers, epyc profile); sim/ rows: same machine and overheads, only the steal topology flips")
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
