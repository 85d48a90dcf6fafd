package autotune

import (
	"fmt"
	"math/rand"
	"testing"

	"sparsetask/internal/matgen"
	"sparsetask/internal/sparse"
)

// tuneExhaustive is the sweep Tune ran before it pruned: every bin evaluated,
// strict improvement replaces the incumbent. It is the oracle the pruned
// search must agree with.
func tuneExhaustive(rows int, cost func(int) (float64, error)) (Result, error) {
	res := Result{Cost: -1}
	for _, bin := range Bins {
		bc := bin.Rep
		if bc > rows {
			continue
		}
		c, err := cost(bc)
		res.Trials = append(res.Trials, Trial{Bin: bin.Label, BlockCount: bc, Cost: c, Err: err})
		if err != nil {
			continue
		}
		if res.Cost < 0 || c < res.Cost {
			res.Cost, res.BlockCount, res.Bin = c, bc, bin.Label
		}
	}
	if res.Cost < 0 {
		return res, fmt.Errorf("no feasible block count for %d rows", rows)
	}
	res.Block = (rows + res.BlockCount - 1) / res.BlockCount
	return res, nil
}

type namedMatrix struct {
	name string
	coo  *sparse.COO
}

// exactnessMatrices is every suite matrix at the given presets plus seeded
// draws of the four generator families in the size range of first-sight
// serving traffic (5 k–25 k stored entries).
func exactnessMatrices(presets ...matgen.Preset) []namedMatrix {
	var ms []namedMatrix
	for _, p := range presets {
		for _, s := range matgen.Suite() {
			ms = append(ms, namedMatrix{s.Name + "/" + p.Name, s.Build(p, 1)})
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		seed := rng.Int63n(1<<40) + 1
		rows := 512 << rng.Intn(3)
		deg := float64(5000+rng.Intn(20000)) / float64(2*rows)
		ms = append(ms, namedMatrix{fmt.Sprintf("rmat-%d-%.2f", rows, deg), matgen.RMAT(rows, deg, 0.57, seed)})
		g := 6 + rng.Intn(4)
		ms = append(ms, namedMatrix{fmt.Sprintf("kkt-%d", g), matgen.KKT(g, seed)})
		nx, ny, nz := 5+rng.Intn(8), 5+rng.Intn(8), 5+rng.Intn(8)
		dof, stencil := 1+rng.Intn(2), []int{7, 27}[rng.Intn(2)]
		ms = append(ms, namedMatrix{fmt.Sprintf("fem3d-%dx%dx%d-d%d-s%d", nx, ny, nz, dof, stencil),
			matgen.FEM3D(nx, ny, nz, dof, stencil, seed)})
		rows = 1000 + rng.Intn(4000)
		ms = append(ms, namedMatrix{fmt.Sprintf("spdlap-%d", rows), matgen.SPDLaplacian(rows, seed)})
	}
	return ms
}

var (
	exactSolvers = []struct {
		name string
		sv   Solver
	}{{"lanczos", Lanczos}, {"lobpcg", LOBPCG}}
	exactWorkers = []int{1, 2, 8, 28}
)

// TestPrunedTuneMatchesExhaustive is the exactness property: on every matrix,
// solver and worker count, the branch-and-bound sweep returns the exhaustive
// sweep's winner — same block, bin and cost — and every candidate it skipped
// would indeed have lost; and the bound is admissible on all six bins, pruned
// or not.
func TestPrunedTuneMatchesExhaustive(t *testing.T) {
	presets := []matgen.Preset{matgen.Tiny, matgen.Small}
	if testing.Short() {
		presets = presets[:1]
	}
	var trials, pruned int
	for _, m := range exactnessMatrices(presets...) {
		for _, s := range exactSolvers {
			for _, w := range exactWorkers {
				ev := GraphEvaluator(m.coo, s.sv, w, 1.0, 500.0)
				if ev.Bound == nil {
					t.Fatalf("%s %s: no bound", m.name, s.name)
				}
				want, wantErr := tuneExhaustive(m.coo.Rows, ev.Cost)
				got, gotErr := Tune(m.coo.Rows, ev)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s %s w=%d: err %v, exhaustive err %v", m.name, s.name, w, gotErr, wantErr)
				}
				if got.Block != want.Block || got.BlockCount != want.BlockCount || got.Bin != want.Bin || got.Cost != want.Cost {
					t.Errorf("%s %s w=%d: pruned sweep picked %d (%s, block %d, cost %v), exhaustive %d (%s, block %d, cost %v)",
						m.name, s.name, w, got.BlockCount, got.Bin, got.Block, got.Cost, want.BlockCount, want.Bin, want.Block, want.Cost)
				}
				if len(got.Trials)+len(got.Pruned) != len(want.Trials) {
					t.Errorf("%s %s w=%d: %d trials + %d pruned, want %d candidates", m.name, s.name, w, len(got.Trials), len(got.Pruned), len(want.Trials))
				}
				for _, tr := range want.Trials {
					if tr.Err != nil {
						continue
					}
					if lb := ev.Bound(tr.BlockCount); lb > tr.Cost {
						t.Errorf("%s %s w=%d bc=%d: bound %v exceeds the true cost %v", m.name, s.name, w, tr.BlockCount, lb, tr.Cost)
					}
				}
				trials += len(got.Trials)
				pruned += len(got.Pruned)
			}
		}
	}
	if pruned == 0 {
		t.Fatal("the bound never pruned a candidate")
	}
	t.Logf("%d candidates evaluated, %d pruned", trials, pruned)
}
