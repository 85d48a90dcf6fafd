package graph

import (
	"testing"

	"sparsetask/internal/matgen"
	"sparsetask/internal/precond"
	"sparsetask/internal/program"
	"sparsetask/internal/sparse"
)

// bidiagonalLower builds an n×n lower factor with diagonal 2 and subdiagonal
// -1: a pure dependency chain, the worst-case skewed level structure.
func bidiagonalLower(n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, 2*n)
	for i := 0; i < n; i++ {
		if i > 0 {
			coo.Append(int32(i), int32(i-1), -1)
		}
		coo.Append(int32(i), int32(i), 2)
	}
	return coo.ToCSR()
}

func mustBlockTri(t *testing.T, a *sparse.CSR, block int, upper bool) *sparse.BlockTri {
	t.Helper()
	tri, err := sparse.NewBlockTri(a, block, upper)
	if err != nil {
		t.Fatal(err)
	}
	return tri
}

func TestExpandSpTrsvChain(t *testing.T) {
	n := 12
	l := bidiagonalLower(n)
	p := program.New(n, 3)
	opL := p.Tri("L")
	opB := p.Vec("b", 1)
	opY := p.Vec("y", 1)
	p.SpTrsvLower(opY, opL, opB)
	g, err := Build(p, nil, Options{SkipEmpty: true, Tris: map[program.OperandID]*sparse.BlockTri{opL: mustBlockTri(t, l, 3, false)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Tasks) != p.NP {
		t.Fatalf("%d tasks, want %d (one per row block)", len(g.Tasks), p.NP)
	}
	// The subdiagonal couples adjacent blocks, so the tasks form a chain:
	// critical path = NP, one root.
	st := g.ComputeStats()
	if st.CriticalPath != p.NP {
		t.Fatalf("critical path %d, want %d", st.CriticalPath, p.NP)
	}
	if len(g.Roots) != 1 {
		t.Fatalf("%d roots, want 1", len(g.Roots))
	}
	if st.MaxWidth != 1 {
		t.Fatalf("widest level has %d tasks, want 1", st.MaxWidth)
	}
	for i := range g.Tasks {
		if g.Tasks[i].Kind != TTrsv {
			t.Fatalf("task %d is %v, want TRSV", i, g.Tasks[i].Kind)
		}
	}
}

func TestExpandSpTrsvMissingFactor(t *testing.T) {
	p := program.New(8, 2)
	opL := p.Tri("L")
	opB := p.Vec("b", 1)
	opY := p.Vec("y", 1)
	p.SpTrsvLower(opY, opL, opB)
	if _, err := Build(p, nil, Options{SkipEmpty: true}); err == nil {
		t.Fatal("expected error when Options.Tris is missing the factor")
	}
}

// TestExpandSpTrsvMismatchedLayout: a layout cut at another block size, or
// built for the other substitution direction, is refused by Build rather than
// expanded into a graph whose edges belong to a different solve.
func TestExpandSpTrsvMismatchedLayout(t *testing.T) {
	l := bidiagonalLower(8)
	p := program.New(8, 2)
	opL := p.Tri("L")
	opB := p.Vec("b", 1)
	opY := p.Vec("y", 1)
	p.SpTrsvLower(opY, opL, opB)
	for name, tri := range map[string]*sparse.BlockTri{
		"block":     mustBlockTri(t, l, 4, false),
		"direction": mustBlockTri(t, l.Transpose(), 2, true),
	} {
		opt := Options{SkipEmpty: true, Tris: map[program.OperandID]*sparse.BlockTri{opL: tri}}
		if _, err := Build(p, nil, opt); err == nil {
			t.Fatalf("%s mismatch: expected an error", name)
		}
	}
}

// TestDeepChainLevels: a 3000-block chain of triangular-solve tasks analyses
// to 3000 levels of one task each.
func TestDeepChainLevels(t *testing.T) {
	n := 3000
	l := bidiagonalLower(n)
	p := program.New(n, 1)
	opL := p.Tri("L")
	opB := p.Vec("b", 1)
	opY := p.Vec("y", 1)
	p.SpTrsvLower(opY, opL, opB)
	g, err := Build(p, nil, Options{SkipEmpty: true, Tris: map[program.OperandID]*sparse.BlockTri{opL: mustBlockTri(t, l, 1, false)}})
	if err != nil {
		t.Fatal(err)
	}
	st := g.ComputeStats()
	if st.Tasks != n || st.CriticalPath != n || st.MaxWidth != 1 {
		t.Fatalf("%d tasks, critical path %d, max width %d; want %d, %d, 1", st.Tasks, st.CriticalPath, st.MaxWidth, n, n)
	}
}

// TestSegmentedSolvePairPipelines: on the solve-stream preconditioner — the
// IC(0) factor of a 256×256 grid Laplacian in 32 row blocks — a block-granular
// forward/backward pair is a chain (flop-weighted work/span 1.00), because
// every block reads the block before it. Cut into segments, a block's first
// levels need only the first levels of the block before it, and the pair
// pipelines: work/span ≥ 3.
func TestSegmentedSolvePairPipelines(t *testing.T) {
	a := matgen.SPDLaplacian(65536, 1).ToCSR()
	ic, err := precond.Factorize(a)
	if err != nil || ic.Kind != precond.KindIC0 {
		t.Fatalf("factorize: %v (%v)", err, ic.Kind)
	}
	p := program.New(a.Rows, (a.Rows+31)/32)
	opL, opU := p.Tri("L"), p.Tri("U")
	opR, opY, opZ := p.Vec("r", 1), p.Vec("y", 1), p.Vec("z", 1)
	p.SpTrsvLower(opY, opL, opR)
	p.SpTrsvUpper(opZ, opU, opY)
	low := precond.AnalyzeLower(ic.L, p.Block)
	up := precond.AnalyzeUpper(ic.U, p.Block)
	g, err := Build(p, nil, Options{Tris: map[program.OperandID]*sparse.BlockTri{opL: low.Tri, opU: up.Tri}})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := low.NumLevels + up.NumLevels; got != 64 {
		t.Errorf("%d block levels, want 64 (each solve a chain of 32 blocks)", got)
	}
	if ws := g.Parallelism(); ws < 3 {
		t.Errorf("flop-weighted work/span of the solve pair = %.2f over %d tasks, want >= 3", ws, len(g.Tasks))
	} else {
		t.Logf("work/span %.2f over %d tasks, %d edges", ws, len(g.Tasks), g.NumEdges)
	}
}
