package rt

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"sparsetask/internal/graph"
	"sparsetask/internal/precond"
	"sparsetask/internal/program"
	"sparsetask/internal/sparse"
)

// trsvProblem factors a 2D Laplacian with IC(0) and builds the two-call
// triangular-solve program z = U⁻¹·(L⁻¹·b): the irregular level-scheduled
// DAG. Returns the graph, a store factory, and the serial reference solution.
func trsvProblem(t *testing.T, grid, block int, withMemo bool) (*graph.TDG, func() *program.Store, []float64) {
	t.Helper()
	n := grid * grid
	coo := sparse.NewCOO(n, n, 5*n)
	at := func(r, c int) int32 { return int32(r*grid + c) }
	for r := 0; r < grid; r++ {
		for c := 0; c < grid; c++ {
			i := at(r, c)
			coo.Append(i, i, 4)
			if r > 0 {
				coo.Append(i, at(r-1, c), -1)
			}
			if r < grid-1 {
				coo.Append(i, at(r+1, c), -1)
			}
			if c > 0 {
				coo.Append(i, at(r, c-1), -1)
			}
			if c < grid-1 {
				coo.Append(i, at(r, c+1), -1)
			}
		}
	}
	m, err := precond.Factorize(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != precond.KindIC0 {
		t.Fatalf("expected IC0 factorization, got %v", m.Kind)
	}

	p := program.New(n, block)
	opL := p.Tri("L")
	opU := p.Tri("U")
	opB := p.Vec("b", 1)
	opY := p.Vec("y", 1)
	opZ := p.Vec("z", 1)
	p.SpTrsvLower(opY, opL, opB)
	p.SpTrsvUpper(opZ, opU, opY)

	// The graph takes the factors in their block substitution layout: the one
	// a memoized level analysis carries, or one built from the bare CSR.
	var low, up *sparse.BlockTri
	if withMemo {
		low, up = precond.AnalyzeLower(m.L, block).Tri, precond.AnalyzeUpper(m.U, block).Tri
	} else {
		if low, err = sparse.NewBlockTri(m.L, block, false); err != nil {
			t.Fatal(err)
		}
		if up, err = sparse.NewBlockTri(m.U, block, true); err != nil {
			t.Fatal(err)
		}
	}
	opt := graph.Options{
		SkipEmpty: true,
		Tris:      map[program.OperandID]*sparse.BlockTri{opL: low, opU: up},
	}
	g, err := graph.Build(p, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(17))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want := make([]float64, n)
	m.Apply(want, make([]float64, n), b)

	mk := func() *program.Store {
		st := program.NewStore(p)
		st.SetTri(opL, m.L)
		st.SetTri(opU, m.U)
		copy(st.Vec[opB], b)
		return st
	}
	return g, mk, want
}

// TestTrsvAllBackendsBitIdentical runs the level-scheduled solve through all
// four runtime backends across worker counts; every
// combination must reproduce the serial reference bit for bit, because the
// segment DAG fixes each row's accumulation order regardless of schedule.
// The second factor's blocks of 768 rows are cut into three segments each.
func TestTrsvAllBackendsBitIdentical(t *testing.T) {
	for _, pc := range []struct{ grid, block, segs int }{{16, 8, 32}, {48, 768, 9}} {
		g, mk, want := trsvProblem(t, pc.grid, pc.block, false)
		if got := len(g.Tasks); got != 2*pc.segs {
			t.Fatalf("grid %d, block %d: %d tasks, want %d segments per solve", pc.grid, pc.block, got, pc.segs)
		}
		zOp := program.OperandID(4) // opZ: fifth declared operand
		for _, workers := range []int{1, 2, 4} {
			for _, r := range allRuntimes(Options{Workers: workers}) {
				name := fmt.Sprintf("grid%d/%s/w%d", pc.grid, r.Name(), workers)
				st := mk()
				if err := runOnce(context.Background(), r, g, st); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i := range want {
					if st.Vec[zOp][i] != want[i] {
						t.Fatalf("%s: z[%d] = %v, want %v (must be bit-identical)",
							name, i, st.Vec[zOp][i], want[i])
					}
				}
			}
		}
	}
}

// TestTrsvMemoizedLevelsMatchScan: building the graph from the layout a
// memoized precond.Levels carries must produce the same dependency structure
// as building it from the bare factor — the property the server's
// factorization cache relies on.
func TestTrsvMemoizedLevelsMatchScan(t *testing.T) {
	ga, _, _ := trsvProblem(t, 13, 7, false)
	gb, mk, want := trsvProblem(t, 13, 7, true)
	if len(ga.Tasks) != len(gb.Tasks) || ga.NumEdges != gb.NumEdges {
		t.Fatalf("scan graph has %d tasks/%d edges, memoized %d/%d",
			len(ga.Tasks), ga.NumEdges, len(gb.Tasks), gb.NumEdges)
	}
	for i := range ga.Tasks {
		ta, tb := &ga.Tasks[i], &gb.Tasks[i]
		if ta.Kind != tb.Kind || ta.P != tb.P || len(ta.Deps) != len(tb.Deps) {
			t.Fatalf("task %d differs: %v(P=%d,%d deps) vs %v(P=%d,%d deps)",
				i, ta.Kind, ta.P, len(ta.Deps), tb.Kind, tb.P, len(tb.Deps))
		}
		for k := range ta.Deps {
			if ta.Deps[k] != tb.Deps[k] {
				t.Fatalf("task %d dep %d differs: %d vs %d", i, k, ta.Deps[k], tb.Deps[k])
			}
		}
	}
	st := mk()
	if err := runOnce(context.Background(), NewDeepSparse(Options{Workers: 3}), gb, st); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if st.Vec[program.OperandID(4)][i] != want[i] {
			t.Fatalf("memoized graph result differs at %d", i)
		}
	}
}

// TestTrsvPreparedReuse: the prepared-run path (what PCG's steady-state
// iterations use) must give the same bit-identical answer on reuse.
func TestTrsvPreparedReuse(t *testing.T) {
	g, mk, want := trsvProblem(t, 12, 6, false)
	st := mk()
	pr := NewDeepSparse(Options{Workers: 4}).Prepare(g, st)
	defer pr.Close()
	for run := 0; run < 3; run++ {
		if err := pr.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if st.Vec[program.OperandID(4)][i] != want[i] {
				t.Fatalf("run %d: z[%d] differs", run, i)
			}
		}
	}
}
