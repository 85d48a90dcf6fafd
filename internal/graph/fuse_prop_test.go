package graph_test

import (
	"fmt"
	"testing"

	"sparsetask/internal/graph"
	"sparsetask/internal/irgen"
	"sparsetask/internal/matgen"
	"sparsetask/internal/precond"
	"sparsetask/internal/solver"
	"sparsetask/internal/sparse"
)

// taskKey names a task of a Build output: no two share one.
type taskKey struct {
	kind graph.TaskKind
	call int32
	p, q int32
}

func keyOf(kind graph.TaskKind, call, p, q int32) taskKey {
	return taskKey{kind: kind, call: call, p: p, q: q}
}

// bitset is a fixed-size set of fused task ids.
type bitset []uint64

func (b bitset) has(i int32) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }
func (b bitset) set(i int32)      { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) or(o bitset) {
	for k, v := range o {
		b[k] |= v
	}
}

// checkFusion verifies f = Fuse(g) against g, a Build output:
//
//   - f is well formed and acyclic (dependencies point strictly backwards);
//   - every task of g is in exactly one part of f;
//   - the parts of a fused task are fusable kinds of one partition in id order;
//   - every edge of g lies inside a fused task (in part order) or is an edge
//     of f, so f's transitive order contains g's;
//   - the rule, checked against a brute-force transitive closure: whatever a
//     later member of a group depends on already precedes the group's head,
//     and a task that opened a group of its own could not have joined the one
//     its partition had open;
//   - flops are conserved and f points back at g;
//   - fusing f again changes nothing.
func checkFusion(g, f *graph.TDG) error {
	if f.Unfused != g || f.Source() != g || g.Source() != g {
		return fmt.Errorf("fused graph does not point back at its source")
	}
	if err := f.Validate(); err != nil {
		return err
	}
	fusable := map[graph.TaskKind]bool{
		graph.TGemm: true, graph.TAxpby: true, graph.TScaleInv: true, graph.TCopy: true, graph.TDiagScale: true,
		graph.TDotPart: true, graph.TGemmTPart: true, graph.TColDotPart: true, graph.TColAxpby: true,
	}

	// Original task -> id, by key.
	ids := make(map[taskKey]int32, len(g.Tasks))
	for i := range g.Tasks {
		t := &g.Tasks[i]
		k := keyOf(t.Kind, t.Call, t.P, t.Q)
		if _, dup := ids[k]; dup {
			return fmt.Errorf("source tasks %d and %d share key %+v", ids[k], i, k)
		}
		ids[k] = int32(i)
	}

	// Coverage, partition, order.
	node := make([]int32, len(g.Tasks)) // original task -> fused task
	for i := range node {
		node[i] = -1
	}
	members := make([][]int32, len(f.Tasks))
	var flopsG, flopsF int64
	for i := range g.Tasks {
		flopsG += g.Tasks[i].Flops
	}
	for k := range f.Tasks {
		t := &f.Tasks[k]
		flopsF += t.Flops
		parts := t.Parts
		if len(parts) == 0 {
			parts = []graph.Part{{Kind: t.Kind, Call: t.Call, P: t.P, Q: t.Q, First: t.First}}
		} else if len(parts) == 1 {
			return fmt.Errorf("fused task %d carries a single part", k)
		}
		for _, part := range parts {
			id, ok := ids[keyOf(part.Kind, part.Call, part.P, part.Q)]
			if !ok {
				return fmt.Errorf("fused task %d has a part %+v that is no source task", k, part)
			}
			if node[id] >= 0 {
				return fmt.Errorf("source task %d is in fused tasks %d and %d", id, node[id], k)
			}
			node[id] = int32(k)
			if len(parts) > 1 {
				if !fusable[part.Kind] {
					return fmt.Errorf("fused task %d contains a %v", k, part.Kind)
				}
				if part.P != t.P || part.P < 0 {
					return fmt.Errorf("fused task %d (partition %d) contains a part of partition %d", k, t.P, part.P)
				}
			}
			if m := members[k]; len(m) > 0 && m[len(m)-1] >= id {
				return fmt.Errorf("fused task %d runs source task %d before %d", k, m[len(m)-1], id)
			}
			members[k] = append(members[k], id)
		}
		if head := &g.Tasks[members[k][0]]; head.Kind != t.Kind || head.Call != t.Call || head.P != t.P {
			return fmt.Errorf("fused task %d does not describe its head", k)
		}
	}
	for i, k := range node {
		if k < 0 {
			return fmt.Errorf("source task %d is in no fused task", i)
		}
	}
	if flopsF != flopsG {
		return fmt.Errorf("flops %d -> %d", flopsG, flopsF)
	}

	// Every source edge survives; count the fused edges they induce.
	induced := 0
	for k := range f.Tasks {
		deps := map[int32]bool{}
		for _, d := range f.Tasks[k].Deps {
			if deps[d] {
				return fmt.Errorf("fused task %d lists dependency %d twice", k, d)
			}
			deps[d] = true
		}
		want := map[int32]bool{}
		for _, i := range members[k] {
			for _, d := range g.Tasks[i].Deps {
				if u := node[d]; u != int32(k) {
					want[u] = true
					if !deps[u] {
						return fmt.Errorf("source edge %d->%d lost: fused task %d does not depend on %d", d, i, k, u)
					}
				}
			}
		}
		if len(want) != len(deps) {
			return fmt.Errorf("fused task %d has %d dependencies, its members induce %d", k, len(deps), len(want))
		}
		induced += len(want)
	}
	if induced != f.NumEdges {
		return fmt.Errorf("NumEdges %d, members induce %d", f.NumEdges, induced)
	}

	// The rule against a brute-force closure. before[k] is everything that
	// precedes fused task k through the heads' dependencies alone.
	words := (len(f.Tasks) + 63) / 64
	before := make([]bitset, len(f.Tasks))
	open := map[int32]int32{} // partition -> its open group
	for k := range f.Tasks {
		before[k] = make(bitset, words)
		head := &g.Tasks[members[k][0]]
		for _, d := range head.Deps {
			before[k].set(node[d])
			before[k].or(before[node[d]])
		}
		for _, i := range members[k][1:] {
			for _, d := range g.Tasks[i].Deps {
				if u := node[d]; u != int32(k) && !before[k].has(u) {
					return fmt.Errorf("source task %d joined fused task %d but waits for %d, which does not precede the group", i, k, u)
				}
			}
		}
		if !fusable[head.Kind] {
			continue
		}
		if prev, ok := open[head.P]; ok {
			blocked := false
			for _, d := range head.Deps {
				if u := node[d]; u != prev && !before[prev].has(u) {
					blocked = true
				}
			}
			if !blocked {
				return fmt.Errorf("source task %d opened fused task %d although it could have joined %d", head.ID, k, prev)
			}
		}
		open[head.P] = int32(k)
	}

	// Idempotence.
	ff := graph.Fuse(f)
	if ff.Unfused != g {
		return fmt.Errorf("refused graph does not point back at the source")
	}
	if len(ff.Tasks) != len(f.Tasks) || ff.NumEdges != f.NumEdges {
		return fmt.Errorf("fusing twice: %d tasks/%d edges -> %d/%d", len(f.Tasks), f.NumEdges, len(ff.Tasks), ff.NumEdges)
	}
	for k := range f.Tasks {
		a, b := &f.Tasks[k], &ff.Tasks[k]
		if len(a.Parts) != len(b.Parts) || len(a.Deps) != len(b.Deps) {
			return fmt.Errorf("fusing twice changed fused task %d", k)
		}
		for j := range a.Parts {
			if a.Parts[j] != b.Parts[j] {
				return fmt.Errorf("fusing twice changed part %d of fused task %d", j, k)
			}
		}
		for j := range a.Deps {
			if a.Deps[j] != b.Deps[j] {
				return fmt.Errorf("fusing twice changed dependency %d of fused task %d", j, k)
			}
		}
	}
	return nil
}

func TestFusePropertiesOnRandomPrograms(t *testing.T) {
	fused, total := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		c := irgen.Random(seed)
		g, err := c.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		f := graph.Fuse(g)
		if err := checkFusion(g, f); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		total += len(g.Tasks)
		fused += len(g.Tasks) - len(f.Tasks)
	}
	// The generator must actually exercise the rule.
	if fused*10 < total {
		t.Fatalf("only %d of %d generated tasks were fused away", fused, total)
	}
}

// TestFusePropertiesOnSolverGraphs checks the same properties on the graph of
// every solver, on general and symmetric storage, and pins what fusion does
// to the fine-grained CG the benchmark runs.
func TestFusePropertiesOnSolverGraphs(t *testing.T) {
	coo := matgen.SPDLaplacian(2048, 1)
	ic, err := precond.Factorize(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	sym, err := coo.ToSymCSB(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []sparse.Matrix{coo.ToCSB(64), sym} {
		type graphed interface{ Graph() *graph.TDG }
		for _, b := range []struct {
			name string
			mk   func() (graphed, error)
		}{
			{"lanczos", func() (graphed, error) { return solver.NewLanczos(a, 16) }},
			{"lobpcg", func() (graphed, error) { return solver.NewLOBPCG(a, 4) }},
			{"cg", func() (graphed, error) { return solver.NewCG(a) }},
			{"pcg", func() (graphed, error) { return solver.NewPCG(a, ic) }},
			{"batchcg", func() (graphed, error) { return solver.NewBatchCG(a, 3) }},
			{"batchpcg", func() (graphed, error) { return solver.NewBatchPCG(a, ic, 3, nil, nil) }},
		} {
			name := b.name
			s, err := b.mk()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			f := s.Graph()
			if f.Unfused == nil {
				t.Fatalf("%s on %T iterates on an unfused graph", name, a)
			}
			if err := checkFusion(f.Unfused, f); err != nil {
				t.Fatalf("%s on %T: %v", name, a, err)
			}
			if len(f.Tasks) >= len(f.Unfused.Tasks) {
				t.Errorf("%s on %T: fusion left %d of %d tasks", name, a, len(f.Tasks), len(f.Unfused.Tasks))
			}
			t.Logf("%-8s %T: %d tasks / %d edges -> %d / %d", name, a,
				len(f.Unfused.Tasks), f.Unfused.NumEdges, len(f.Tasks), f.NumEdges)
		}
	}

	// solve-finegrain's CG, the width-1 program of the one Krylov driver: per
	// partition, CAXPBY·CAXPBY·CDOTp (the x and r updates and rᵀr) become one
	// task and the trailing CAXPBY (p = r + β·p) stays its own. Before the
	// single-RHS recurrence was deleted this pinned 1412/2687 -> 644/1791:
	// that program applied α and β as ScaleInv into scratch vectors followed by
	// Axpby (four more partitioned calls) and took a separate Norm.
	fine, err := matgen.SPDLaplacian(16384, 1).ToSymCSB(128)
	if err != nil {
		t.Fatal(err)
	}
	c, err := solver.NewCG(fine)
	if err != nil {
		t.Fatal(err)
	}
	f := c.Graph()
	if got, want := [4]int{len(f.Unfused.Tasks), f.Unfused.NumEdges, len(f.Tasks), f.NumEdges}, [4]int{899, 2047, 643, 1663}; got != want {
		t.Errorf("fine-grained CG: tasks/edges before and after fusion %v, want %v", got, want)
	}
}
