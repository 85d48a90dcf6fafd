package rt

import (
	"context"
	"testing"

	"sparsetask/internal/graph"
	"sparsetask/internal/irgen"
	"sparsetask/internal/kernels"
	"sparsetask/internal/topo"
)

// TestDifferentialGraphExecution is the net under graph fusion and every
// scheduler change: seeded random well-formed IR programs, each expanded to
// its unfused and its fused graph, run on every backend at 1, 2 and 4 workers
// on the flat and a two-domain topology, must leave the store exactly — bit
// for bit — as kernels.RunSequential on the unfused graph leaves it. Each
// prepared handle runs twice, so state carried from one Run to the next
// (dependency counters, queues, parked teams, Regent's traced replay) is
// covered too. Run it under -race: the generated programs alias operands and
// chain reductions freely, so a dropped dependency is a data race before it
// is a wrong bit.
func TestDifferentialGraphExecution(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	ctx := context.Background()
	for seed := int64(1); seed <= int64(seeds); seed++ {
		c := irgen.Random(seed)
		unfused, err := c.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref := c.NewStore()
		kernels.RunSequential(unfused, ref)
		kernels.RunSequential(unfused, ref)

		// The fused graph in plain id order first: fusion alone.
		fused := graph.Fuse(unfused)
		seq := c.NewStore()
		kernels.RunSequential(fused, seq)
		kernels.RunSequential(fused, seq)
		if diff := irgen.SameBits(ref, seq); diff != "" {
			t.Fatalf("seed %d: fused graph, sequential: %s", seed, diff)
		}

		for _, g := range []*graph.TDG{unfused, fused} {
			shape := "unfused"
			if g.Unfused != nil {
				shape = "fused"
			}
			for _, tp := range []topo.Topology{topo.Flat(), topo.Broadwell()} {
				for _, w := range []int{1, 2, 4} {
					opt := Options{Workers: w, Topo: tp, AnalysisCost: 1, DynamicTracing: seed%2 == 0}
					for _, r := range allRuntimes(opt) {
						st := c.NewStore()
						pr := PrepareRun(r, g, st)
						for it := 0; it < 2; it++ {
							if err := pr.Run(ctx); err != nil {
								t.Fatalf("seed %d: %s: %v", seed, r.Name(), err)
							}
						}
						pr.Close()
						if diff := irgen.SameBits(ref, st); diff != "" {
							t.Fatalf("seed %d: %s graph on %s, %d workers, %s: %s",
								seed, shape, r.Name(), w, tp, diff)
						}
					}
				}
			}
		}
	}
}

// TestRegentFusedGroupsAreIndexLaunches pins what Regent analyses on a fused
// graph: a run of fused tasks with one call sequence pays analysis once, with
// its first task, like the tasks of a call marked IndexLaunch.
func TestRegentFusedGroupsAreIndexLaunches(t *testing.T) {
	g, mk := testProblem(t, 60, 6, 2, 4)
	f := graph.Fuse(g)
	// Per partition XY·XTYp·DOTp fuse behind the SpMM and SCALE·AXPBY behind
	// the norm: two launches over NP partitions.
	np := g.Prog.NP
	if want := len(g.Tasks) - 3*np; len(f.Tasks) != want {
		t.Fatalf("fused test problem has %d tasks, want %d", len(f.Tasks), want)
	}
	r := NewRegent(Options{Workers: 2, AnalysisCost: 10})
	if err := r.Run(context.Background(), f, mk()); err != nil {
		t.Fatal(err)
	}
	if got, want := r.LastAnalyzed, len(f.Tasks)-2*(np-1); got != want {
		t.Errorf("analyzed %d of %d fused tasks, want %d", got, len(f.Tasks), want)
	}
}
