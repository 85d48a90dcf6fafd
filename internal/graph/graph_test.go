package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"sparsetask/internal/program"
	"sparsetask/internal/sparse"
)

// listing1Program builds the paper's Listing 1: Y = A·X; Q = Y·Z; P = Yᵀ·Q.
func listing1Program(m, block, n int) (*program.Program, program.OperandID, program.OperandID, program.OperandID, program.OperandID, program.OperandID, program.OperandID) {
	p := program.New(m, block)
	A := p.Sparse("A")
	X := p.Vec("X", n)
	Y := p.Vec("Y", n)
	Z := p.Small("Z", n, n)
	Q := p.Vec("Q", n)
	P := p.Small("P", n, n)
	p.SpMM(Y, A, X)
	p.Gemm(Q, 1, Y, Z, 0)
	p.GemmT(P, Y, Q)
	return p, A, X, Y, Z, Q, P
}

func denseCSB(m, block int, seed int64) *sparse.CSB {
	rng := rand.New(rand.NewSource(seed))
	a := sparse.NewCOO(m, m, m*m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			a.Append(int32(i), int32(j), rng.NormFloat64())
		}
	}
	return a.ToCSB(block)
}

func TestListing1GraphShape(t *testing.T) {
	// Dense 9x9 matrix with block 3 → np = 3, matching the paper's Fig. 3.
	m, block, n := 9, 3, 2
	p, A, _, _, _, _, _ := listing1Program(m, block, n)
	csb := denseCSB(m, block, 1)
	g, err := Build(p, map[program.OperandID]*sparse.CSB{A: csb}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// 9 SpMM tile tasks + 3 XY + 3 XTY partials + 1 reduce = 16.
	if len(g.Tasks) != 16 {
		t.Fatalf("tasks = %d, want 16", len(g.Tasks))
	}
	s := g.ComputeStats()
	// SpMM chain of 3 per row, then XY, then XTY partial, then reduce: 6.
	if s.CriticalPath != 6 {
		t.Errorf("critical path = %d, want 6", s.CriticalPath)
	}
	// Kernel-level critical path: SpMM → XY → XTY = 3 kernels... XTY has an
	// internal partial→reduce level, so 4.
	if s.KernelCriticalPath < 3 || s.KernelCriticalPath > 4 {
		t.Errorf("kernel critical path = %d, want 3..4", s.KernelCriticalPath)
	}
	// Exactly 3 roots: the first SpMM task of each row chain.
	if len(g.Roots) != 3 {
		t.Errorf("roots = %d, want 3", len(g.Roots))
	}
}

func TestSpMMChainDependencies(t *testing.T) {
	m, block, n := 9, 3, 1
	p, A, _, _, _, _, _ := listing1Program(m, block, n)
	csb := denseCSB(m, block, 2)
	g, err := Build(p, map[program.OperandID]*sparse.CSB{A: csb}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Within each output row block, tile tasks must form a chain: task k
	// depends on task k-1 (same P, increasing Q).
	var prev *Task
	for i := range g.Tasks {
		task := &g.Tasks[i]
		if task.Kind != TSpMMTile {
			continue
		}
		if task.Q == 0 {
			if !task.First {
				t.Errorf("task %d (P=%d,Q=0) should be First", task.ID, task.P)
			}
			if len(task.Deps) != 0 {
				t.Errorf("first tile task %d has deps %v", task.ID, task.Deps)
			}
			prev = task
			continue
		}
		found := false
		for _, d := range task.Deps {
			if d == prev.ID {
				found = true
			}
		}
		if !found {
			t.Errorf("tile task %d (P=%d,Q=%d) missing chain dep on %d", task.ID, task.P, task.Q, prev.ID)
		}
		prev = task
	}
}

func TestSkipEmptyReducesTasks(t *testing.T) {
	// Block-diagonal matrix: only diagonal tiles non-empty.
	m, block := 64, 16
	a := sparse.NewCOO(m, m, m)
	for i := 0; i < m; i++ {
		a.Append(int32(i), int32(i), 1.0)
	}
	csb := a.ToCSB(block)
	p := program.New(m, block)
	A := p.Sparse("A")
	X := p.Vec("X", 1)
	Y := p.Vec("Y", 1)
	p.SpMM(Y, A, X)

	gSkip, err := Build(p, map[program.OperandID]*sparse.CSB{A: csb}, Options{SkipEmpty: true})
	if err != nil {
		t.Fatal(err)
	}
	gAll, err := Build(p, map[program.OperandID]*sparse.CSB{A: csb}, Options{SkipEmpty: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(gSkip.Tasks) != 4 {
		t.Errorf("skip-empty tasks = %d, want 4 (diagonal tiles only)", len(gSkip.Tasks))
	}
	if len(gAll.Tasks) != 16 {
		t.Errorf("all-tiles tasks = %d, want 16", len(gAll.Tasks))
	}
}

func TestEmptyRowBlockGetsZeroTask(t *testing.T) {
	// Matrix with an entirely empty row block: Y must still be defined.
	m, block := 8, 4
	a := sparse.NewCOO(m, m, 2)
	a.Append(0, 0, 1)
	a.Append(1, 2, 1) // both entries in row block 0
	csb := a.ToCSB(block)
	p := program.New(m, block)
	A := p.Sparse("A")
	X := p.Vec("X", 1)
	Y := p.Vec("Y", 1)
	p.SpMM(Y, A, X)
	g, err := Build(p, map[program.OperandID]*sparse.CSB{A: csb}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for i := range g.Tasks {
		if g.Tasks[i].Kind == TSpMMZero {
			zeros++
			if g.Tasks[i].P != 1 {
				t.Errorf("zero task for partition %d, want 1", g.Tasks[i].P)
			}
		}
	}
	if zeros != 1 {
		t.Errorf("zero tasks = %d, want 1", zeros)
	}
}

func TestReduceSpMMShape(t *testing.T) {
	m, block := 9, 3
	p := program.New(m, block)
	A := p.Sparse("A")
	X := p.Vec("X", 1)
	Y := p.Vec("Y", 1)
	p.SpMM(Y, A, X)
	p.Calls[0].ReduceSpMM = true
	csb := denseCSB(m, block, 3)
	g, err := Build(p, map[program.OperandID]*sparse.CSB{A: csb}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bufTiles, reduces := 0, 0
	for i := range g.Tasks {
		switch g.Tasks[i].Kind {
		case TSpMMBufTile:
			bufTiles++
			if len(g.Tasks[i].Deps) != 0 {
				t.Errorf("buffered tile task %d should have no deps, has %v", g.Tasks[i].ID, g.Tasks[i].Deps)
			}
		case TSpMMReduce:
			reduces++
			if len(g.Tasks[i].Deps) != 3 {
				t.Errorf("reduce task %d deps = %d, want 3", g.Tasks[i].ID, len(g.Tasks[i].Deps))
			}
		}
	}
	if bufTiles != 9 || reduces != 3 {
		t.Errorf("buf=%d reduce=%d, want 9 and 3", bufTiles, reduces)
	}
	// Reduce variant has critical path 2 regardless of np — the parallelism
	// argument for it; the paper shows its memory cost loses anyway.
	if s := g.ComputeStats(); s.CriticalPath != 2 {
		t.Errorf("critical path = %d, want 2", s.CriticalPath)
	}
}

func TestScaleDependsOnNorm(t *testing.T) {
	m, block := 8, 4
	p := program.New(m, block)
	X := p.Vec("X", 1)
	Y := p.Vec("Y", 1)
	s := p.Scalar("beta")
	p.Norm(s, X)
	p.ScaleInv(Y, X, s)
	g, err := Build(p, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Every TScaleInv task must transitively depend on the TDotReduce task.
	var reduceID int32 = -1
	for i := range g.Tasks {
		if g.Tasks[i].Kind == TDotReduce {
			reduceID = g.Tasks[i].ID
		}
	}
	if reduceID < 0 {
		t.Fatal("no reduce task")
	}
	for i := range g.Tasks {
		task := &g.Tasks[i]
		if task.Kind != TScaleInv {
			continue
		}
		dep := false
		for _, d := range task.Deps {
			if d == reduceID {
				dep = true
			}
		}
		if !dep {
			t.Errorf("scale task %d does not depend on norm reduce %d", task.ID, reduceID)
		}
	}
}

func TestWARDependency(t *testing.T) {
	// X is read by a Dot, then overwritten by Axpby: the writer must wait
	// for the reader (anti-dependency).
	m, block := 8, 4
	p := program.New(m, block)
	X := p.Vec("X", 1)
	Y := p.Vec("Y", 1)
	s := p.Scalar("s")
	p.Dot(s, X, Y)
	p.Axpby(X, 2, Y, 0, Y) // overwrites X
	g, err := Build(p, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Find the Axpby task for partition 0 and the DotPart task for 0.
	var dot0, axpby0 *Task
	for i := range g.Tasks {
		task := &g.Tasks[i]
		if task.Kind == TDotPart && task.P == 0 {
			dot0 = task
		}
		if task.Kind == TAxpby && task.P == 0 {
			axpby0 = task
		}
	}
	if dot0 == nil || axpby0 == nil {
		t.Fatal("missing tasks")
	}
	found := false
	for _, d := range axpby0.Deps {
		if d == dot0.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("axpby task %d missing WAR dep on dot task %d", axpby0.ID, dot0.ID)
	}
}

func TestWriteDOT(t *testing.T) {
	m, block, n := 9, 3, 2
	p, A, _, _, _, _, _ := listing1Program(m, block, n)
	csb := denseCSB(m, block, 4)
	g, err := Build(p, map[program.OperandID]*sparse.CSB{A: csb}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, "fig3"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "SpMM(0,0)") {
		t.Errorf("unexpected DOT output:\n%s", out[:min(len(out), 400)])
	}
}

func TestTasksOfCall(t *testing.T) {
	m, block, n := 9, 3, 2
	p, A, _, _, _, _, _ := listing1Program(m, block, n)
	csb := denseCSB(m, block, 5)
	g, err := Build(p, map[program.OperandID]*sparse.CSB{A: csb}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	perCall := map[int32]int{}
	for i := range g.Tasks {
		perCall[g.Tasks[i].Call]++
	}
	for call, want := range map[int32]int{0: 9, 1: 3, 2: 4} {
		if got := perCall[call]; got != want {
			t.Errorf("call %d tasks = %d, want %d", call, got, want)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
