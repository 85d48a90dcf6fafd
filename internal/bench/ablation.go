package bench

import (
	"fmt"

	"sparsetask/internal/graph"
	"sparsetask/internal/sim"
)

// runAblation regenerates the paper's §5.1 "Other Attempts" findings plus
// the scheduling-discipline ablation called out in DESIGN.md:
//
//   - HPX NUMA-aware scheduling hints on vs off (paper: ~50% better on EPYC
//     with its 8 NUMA domains; little effect on Broadwell);
//   - Regent dynamic tracing on vs off (paper: no significant improvement);
//   - DeepSparse LIFO (depth-first) vs FIFO local queues (the depth-first
//     bias is what produces the pipelined cache reuse).
func runAblation(cfg *Config) (*Report, error) {
	r := newReport("ablation", "Scheduling ablations (§5.1 'Other Attempts' + design choices)",
		"Ablation", "Arch", "Matrix", "off (ms)", "on (ms)", "Speedup")
	specs, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	if len(cfg.Matrices) == 0 && len(specs) > 4 {
		specs = specs[:4]
	}
	mc := newMatrixCache(cfg)
	iters := cfg.iters(3)
	scale := cfg.Preset.OverheadScale()

	type variant struct {
		name string
		arch string
		off  func(cores, domains int) sim.Policy
		on   func(cores, domains int) sim.Policy
	}
	variants := []variant{
		{
			name: "hpx-numa",
			arch: "epyc",
			off: func(c, d int) sim.Policy {
				p := sim.NewHPX(c, d, false)
				p.Scale = scale
				return p
			},
			on: func(c, d int) sim.Policy {
				p := sim.NewHPX(c, d, true)
				p.Scale = scale
				return p
			},
		},
		{
			name: "regent-tracing",
			arch: "broadwell",
			off: func(c, d int) sim.Policy {
				p := sim.NewRegent(c-c/7, c/7, false)
				p.Scale = scale
				return p
			},
			on: func(c, d int) sim.Policy {
				p := sim.NewRegent(c-c/7, c/7, true)
				p.Scale = scale
				return p
			},
		},
		{
			name: "ds-depthfirst",
			arch: "broadwell",
			// "off" approximates FIFO local queues via the HPX policy with a
			// single domain and no placement hints; "on" is the LIFO
			// DeepSparse policy.
			off: func(c, d int) sim.Policy {
				p := sim.NewHPX(c, 1, false)
				p.Scale = scale
				return p
			},
			on: func(c, d int) sim.Policy {
				p := sim.NewDeepSparse(c)
				p.Scale = scale
				return p
			},
		},
	}

	// Task fusion: an extension ablation — graph.Build's output against the
	// partition-local group fusion every solver now iterates on.
	{
		mach, err := scaledMachine("broadwell", cfg.Preset)
		if err != nil {
			return nil, err
		}
		var ratios []float64
		for _, s := range specs {
			coo := mc.get(s)
			bc := clampBC(96, coo.Rows)
			g, err := buildGraph(coo, LOBPCG, bc, graph.DefaultOptions(), false)
			if err != nil {
				return nil, err
			}
			fused := graph.Fuse(g)
			mk := func() sim.Policy {
				p := sim.NewDeepSparse(mach.Cores)
				p.Scale = scale
				return p
			}
			tOff, _, err := simMeasure(mach, mk(), g, iters, true, nil)
			if err != nil {
				return nil, err
			}
			tOn, _, err := simMeasure(mach, mk(), fused, iters, true, nil)
			if err != nil {
				return nil, err
			}
			sp := tOff / tOn
			ratios = append(ratios, sp)
			r.addRow("task-fusion", "broadwell", s.Name, fmtMs(tOff), fmtMs(tOn), fmtX(sp))
			r.Metrics[fmt.Sprintf("task-fusion/%s", s.Name)] = sp
		}
		r.Metrics["geomean/task-fusion"] = geoMean(ratios)
		r.note("task-fusion geomean: %s", fmtX(geoMean(ratios)))
	}

	for _, v := range variants {
		mach, err := scaledMachine(v.arch, cfg.Preset)
		if err != nil {
			return nil, err
		}
		var ratios []float64
		for _, s := range specs {
			coo := mc.get(s)
			bc := clampBC(96, coo.Rows)
			g, err := buildGraph(coo, LOBPCG, bc, graph.DefaultOptions(), false)
			if err != nil {
				return nil, err
			}
			tOff, _, err := simMeasure(mach, v.off(mach.Cores, mach.NUMADomains), g, iters, true, nil)
			if err != nil {
				return nil, err
			}
			tOn, _, err := simMeasure(mach, v.on(mach.Cores, mach.NUMADomains), g, iters, true, nil)
			if err != nil {
				return nil, err
			}
			sp := tOff / tOn
			ratios = append(ratios, sp)
			r.addRow(v.name, v.arch, s.Name, fmtMs(tOff), fmtMs(tOn), fmtX(sp))
			r.Metrics[fmt.Sprintf("%s/%s", v.name, s.Name)] = sp
		}
		r.Metrics["geomean/"+v.name] = geoMean(ratios)
		r.note("%s geomean: %s", v.name, fmtX(geoMean(ratios)))
	}
	r.note("paper: HPX NUMA hints ~+50%% on EPYC; Regent dynamic tracing no significant gain; depth-first bias is a DeepSparse design premise")
	return r, nil
}
