package graph

import (
	"math"
	"testing"

	"sparsetask/internal/program"
	"sparsetask/internal/sparse"
)

func TestBoundsChainAndFan(t *testing.T) {
	// Dense 3x3-tile SpMM: per row, a chain of 3 tile tasks. With unit
	// costs: work 9, span 3 (one chain).
	m, block := 9, 3
	p := program.New(m, block)
	A := p.Sparse("A")
	X := p.Vec("X", 1)
	Y := p.Vec("Y", 1)
	p.SpMM(Y, A, X)
	g, err := Build(p, map[program.OperandID]*sparse.CSB{A: denseCSB(m, block, 1)}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := g.ComputeBounds(func(*Task) float64 { return 1 })
	if b.Work != 9 || b.Span != 3 {
		t.Fatalf("bounds = %+v, want work 9 span 3", b)
	}
	if lb := b.LowerBound(3); lb != 3 {
		t.Fatalf("LowerBound(3) = %v, want 3 (both bounds coincide)", lb)
	}
	if lb := b.LowerBound(1); lb != 9 {
		t.Fatalf("LowerBound(1) = %v, want 9", lb)
	}
	if ub := b.BrentUpperBound(3); ub != 6 {
		t.Fatalf("Brent(3) = %v, want 6", ub)
	}
}

func TestFlopBoundsAndParallelism(t *testing.T) {
	m, block, n := 60, 6, 4
	p, A, _, _, _, _, _ := listing1Program(m, block, n)
	g, err := Build(p, map[program.OperandID]*sparse.CSB{A: denseCSB(m, block, 2)}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := g.FlopBounds()
	if b.Work <= 0 || b.Span <= 0 || b.Span > b.Work {
		t.Fatalf("degenerate flop bounds %+v", b)
	}
	// Total flops must match the sum over tasks.
	var total float64
	for i := range g.Tasks {
		total += float64(g.Tasks[i].Flops)
	}
	if math.Abs(b.Work-total) > 1e-9 {
		t.Fatalf("work %v != Σflops %v", b.Work, total)
	}
	par := g.Parallelism()
	if par < 1 || par > float64(len(g.Tasks)) {
		t.Fatalf("parallelism %v out of range", par)
	}
}

func TestParallelismGrowsWithBlockCount(t *testing.T) {
	// The paper's premise: finer tiling exposes more parallelism.
	m := 128
	mk := func(block int) float64 {
		p := program.New(m, block)
		A := p.Sparse("A")
		X := p.Vec("X", 1)
		Y := p.Vec("Y", 1)
		p.SpMM(Y, A, X)
		p.Dot(p.Scalar("s"), Y, Y)
		g, err := Build(p, map[program.OperandID]*sparse.CSB{A: denseCSB(m, block, 3)}, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return g.Parallelism()
	}
	coarse := mk(64) // 2x2 tiles
	fine := mk(16)   // 8x8 tiles
	if fine <= coarse {
		t.Fatalf("parallelism fine=%v should exceed coarse=%v", fine, coarse)
	}
}

// everyCallProgram uses each call kind WorkFloor prices, over a vec width of n.
func everyCallProgram(m, block, n int) (*program.Program, program.OperandID) {
	p := program.New(m, block)
	A := p.Sparse("A")
	X, Y, Q := p.Vec("X", n), p.Vec("Y", n), p.Vec("Q", n)
	d := p.Vec("d", 1)
	Z, C := p.Small("Z", n, n), p.Small("C", 1, n)
	s := p.Scalar("s")
	p.SpMM(Y, A, X)
	p.Gemm(Q, 1, Y, Z, 0)
	p.GemmT(Z, Y, Q)
	p.Axpby(Q, 1, Y, -1, X)
	p.Norm(s, Q)
	p.ScaleInv(Q, Q, s)
	p.Dot(s, X, Y)
	p.ColDot(C, X, Y)
	p.ColNorm(C, Q)
	p.ColAxpby(X, X, C, -1, Q)
	p.SmallStep("step", func(*program.Store) {}, []program.OperandID{C}, []program.OperandID{Z})
	p.Copy(Y, X)
	p.DiagScale(Q, d, Y)
	return p, A
}

// TestWorkFloor holds the floor to what Build emits: never above it, for any
// occupancy and a ragged last partition; exactly it when every row block has
// one tile; and the same whichever tiling the program it walks was built for.
func TestWorkFloor(t *testing.T) {
	const m, n = 103, 4
	diag := sparse.NewCOO(m, m, m)
	for i := 0; i < m; i++ {
		diag.Append(int32(i), int32(i), 2)
	}
	// Rows 40..79 empty (zeroing tasks), the rest scattered over many tiles.
	holed := sparse.NewCOO(m, m, 0)
	for i := 0; i < m; i++ {
		if i >= 40 && i < 80 {
			continue
		}
		for j := i % 7; j < m; j += 11 {
			holed.Append(int32(i), int32(j), 1)
		}
	}
	probe, _ := everyCallProgram(m, m, n)
	for _, block := range []int{m, 50, 13, 7, 1} {
		for name, coo := range map[string]*sparse.COO{"diagonal": diag, "holed": holed} {
			p, A := everyCallProgram(m, block, n)
			g, err := Build(p, map[program.OperandID]*sparse.CSB{A: coo.TileSkeleton(block)}, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			flops, tasks := WorkFloor(p, p.NP, int64(coo.NNZ()))
			if pf, pt := WorkFloor(probe, p.NP, int64(coo.NNZ())); pf != flops || pt != tasks {
				t.Errorf("block %d: floor (%d, %d) from the program itself, (%d, %d) from a program built untiled", block, flops, tasks, pf, pt)
			}
			gotFlops, gotTasks := int64(g.FlopBounds().Work), int64(len(g.Tasks))
			if flops > gotFlops || tasks > gotTasks {
				t.Errorf("%s block %d: floor (%d flops, %d tasks) above the graph's (%d, %d)", name, block, flops, tasks, gotFlops, gotTasks)
			}
			if name == "diagonal" && (flops != gotFlops || tasks != gotTasks) {
				t.Errorf("block %d: one tile per row block, yet floor (%d, %d) != graph (%d, %d)", block, flops, tasks, gotFlops, gotTasks)
			}
		}
	}
}
