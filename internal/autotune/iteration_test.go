package autotune

import (
	"fmt"
	"slices"
	"testing"

	"sparsetask/internal/graph"
	"sparsetask/internal/matgen"
	"sparsetask/internal/solver"
)

// TestIterationGraphIsSolverSource holds IterationGraph, which every
// evaluator and experiment prices, to the graph the solver itself is built
// from: the same tasks, dependencies and data regions as
// NewLanczos/NewLOBPCG's Graph().Source() over the fully tiled matrix, on
// every suite matrix at every bin representative the matrix admits.
func TestIterationGraphIsSolverSource(t *testing.T) {
	for _, spec := range matgen.Suite() {
		coo := spec.Build(matgen.Tiny, 1)
		for _, bin := range Bins {
			if bin.Rep > coo.Rows {
				continue
			}
			csb := coo.ToCSB((coo.Rows + bin.Rep - 1) / bin.Rep)
			for _, sv := range []Solver{Lanczos, LOBPCG} {
				name := fmt.Sprintf("%s/%d/%d", spec.Name, bin.Rep, sv)
				got, err := IterationGraph(coo, sv, bin.Rep)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var want *graph.TDG
				if sv == Lanczos {
					l, err := solver.NewLanczos(csb, 10)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want = l.Graph().Source()
				} else {
					l, err := solver.NewLOBPCG(csb, 8)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want = l.Graph().Source()
				}
				if err := sameGraph(got, want); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
}

// sameGraph reports the first difference between two task graphs in what a
// cost model or the simulator reads of them.
func sameGraph(a, b *graph.TDG) error {
	if !slices.Equal(a.Roots, b.Roots) {
		return fmt.Errorf("roots differ: %v vs %v", a.Roots, b.Roots)
	}
	if a.NumEdges != b.NumEdges {
		return fmt.Errorf("%d edges vs %d", a.NumEdges, b.NumEdges)
	}
	if len(a.Tasks) != len(b.Tasks) {
		return fmt.Errorf("%d tasks vs %d", len(a.Tasks), len(b.Tasks))
	}
	for i := range a.Tasks {
		x, y := &a.Tasks[i], &b.Tasks[i]
		if x.Kind != y.Kind || x.Call != y.Call || x.P != y.P || x.Q != y.Q ||
			x.First != y.First || x.Flops != y.Flops ||
			!slices.Equal(x.Deps, y.Deps) || !slices.Equal(x.Reads, y.Reads) ||
			!slices.Equal(x.Writes, y.Writes) {
			return fmt.Errorf("task %d differs:\n%+v\nvs\n%+v", i, *x, *y)
		}
	}
	return nil
}
