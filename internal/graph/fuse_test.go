package graph

import (
	"testing"

	"sparsetask/internal/program"
	"sparsetask/internal/sparse"
)

// fusableProgram builds a graph with a long elementwise pipeline per
// partition: SpMM → XY → AXPBY → COPY → SCALE-able chain.
func fusableProgram(t *testing.T) (*TDG, *program.Program) {
	t.Helper()
	m, block, n := 32, 8, 2
	p := program.New(m, block)
	A := p.Sparse("A")
	X := p.Vec("X", n)
	Y := p.Vec("Y", n)
	Z := p.Small("Z", n, n)
	Q := p.Vec("Q", n)
	W := p.Vec("W", n)
	V := p.Vec("V", n)
	p.SpMM(Y, A, X)
	p.Gemm(Q, 1, Y, Z, 0)  // fusable, depends only on Y[bi]+Z
	p.Axpby(W, 1, Q, 2, Q) // fusable, single dep on Gemm[bi]
	p.Copy(V, W)           // fusable, single dep on Axpby[bi]
	g, err := Build(p, map[program.OperandID]*sparse.CSB{A: denseCSB(m, block, 9)}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g, p
}

func TestFuseCollapsesElementwiseChains(t *testing.T) {
	g, _ := fusableProgram(t)
	f := Fuse(g)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// Per partition: Gemm+Axpby+Copy collapse into one task. 4 partitions ×
	// 2 saved tasks = 8 fewer tasks.
	if want := len(g.Tasks) - 8; len(f.Tasks) != want {
		t.Fatalf("fused graph has %d tasks, want %d (from %d)", len(f.Tasks), want, len(g.Tasks))
	}
	fusedCount := 0
	for i := range f.Tasks {
		if len(f.Tasks[i].Parts) == 3 {
			fusedCount++
			// Fused flops must be the sum of constituents.
			if f.Tasks[i].Flops <= 0 {
				t.Error("fused task lost flops")
			}
		}
	}
	if fusedCount != 4 {
		t.Fatalf("%d three-part fused tasks, want 4", fusedCount)
	}
}

func TestFuseDoesNotCrossPartitions(t *testing.T) {
	g, _ := fusableProgram(t)
	f := Fuse(g)
	for i := range f.Tasks {
		task := &f.Tasks[i]
		for _, part := range task.Parts {
			if part.P != task.P {
				t.Fatalf("fused task %d mixes partitions %d and %d", task.ID, task.P, part.P)
			}
		}
	}
}

func TestFuseGroupsSiblingConsumers(t *testing.T) {
	// Y feeds two consumers on its own partition. They could run side by
	// side, but only with each other — the rule trades that for one dispatch
	// per partition: everything the second consumer waits for is in the
	// group.
	m, block, n := 16, 8, 2
	p := program.New(m, block)
	X := p.Vec("X", n)
	Y := p.Vec("Y", n)
	W1 := p.Vec("W1", n)
	W2 := p.Vec("W2", n)
	p.Copy(Y, X)
	p.Axpby(W1, 1, Y, 0, Y)
	p.Axpby(W2, 2, Y, 0, Y)
	g, err := Build(p, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f := Fuse(g)
	if len(f.Tasks) != p.NP {
		t.Fatalf("%d tasks after fusion, want one per partition (%d)", len(f.Tasks), p.NP)
	}
	for i := range f.Tasks {
		if len(f.Tasks[i].Parts) != 3 {
			t.Fatalf("task %d has %d parts, want 3", i, len(f.Tasks[i].Parts))
		}
	}
}

func TestFuseStopsAtCrossPartitionInput(t *testing.T) {
	// W[p] needs Z[p] = Σ_q A(p,q)·Y[q]: tile tasks that come after the group
	// holding COPY[p] and are no members of it. AXPBY[p] must open a new
	// group, and with nothing following it nothing fuses at all.
	m, block, n := 32, 8, 2
	p := program.New(m, block)
	A := p.Sparse("A")
	X := p.Vec("X", n)
	Y := p.Vec("Y", n)
	Z := p.Vec("Z", n)
	W := p.Vec("W", n)
	p.Copy(Y, X)
	p.SpMM(Z, A, Y)
	p.Axpby(W, 1, Z, 1, Y)
	g, err := Build(p, map[program.OperandID]*sparse.CSB{A: denseCSB(m, block, 9)}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f := Fuse(g)
	if len(f.Tasks) != len(g.Tasks) {
		t.Fatalf("fusion across an SpMM: %d -> %d tasks", len(g.Tasks), len(f.Tasks))
	}
}

func TestFuseJoinsAcrossAReduction(t *testing.T) {
	// The CG pattern: s = XᵀX; Y = X/s; W = Y + X. SCALE[p] waits for the
	// reduction, which waits for DOTp[q] of every q — so DOTp[p] cannot take
	// SCALE[p] in. But AXPBY[p]'s inputs (SCALE[p], and X[p]'s readers
	// DOTp[p] and SCALE[p]) all precede or sit in SCALE[p]'s group.
	m, block := 32, 8
	p := program.New(m, block)
	X := p.Vec("X", 1)
	Y := p.Vec("Y", 1)
	s := p.Scalar("s")
	p.Dot(s, X, X)
	p.ScaleInv(Y, X, s)
	p.Axpby(X, 1, Y, 1, X)
	g, err := Build(p, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f := Fuse(g)
	// NP DOTp, one DOTr, NP fused SCALE·AXPBY.
	if want := 2*p.NP + 1; len(f.Tasks) != want {
		t.Fatalf("%d tasks after fusion, want %d", len(f.Tasks), want)
	}
	for i := range f.Tasks {
		if tk := &f.Tasks[i]; tk.Kind == TScaleInv && len(tk.Parts) != 2 {
			t.Fatalf("SCALE[%d] has %d parts, want SCALE·AXPBY", tk.P, len(tk.Parts))
		}
	}
}

func TestFusePreservesCriticalStructure(t *testing.T) {
	g, _ := fusableProgram(t)
	f := Fuse(g)
	// Kernel-level reachability must be intact: the graph still ends with
	// the same number of leaf tasks per partition and stats stay coherent.
	sOrig := g.ComputeStats()
	sFused := f.ComputeStats()
	if wOrig, wFused := g.FlopBounds().Work, f.FlopBounds().Work; wFused != wOrig {
		t.Fatalf("fusion changed total flops: %v -> %v", wOrig, wFused)
	}
	if sFused.CriticalPath >= sOrig.CriticalPath {
		t.Fatalf("fusion should shorten the task-level critical path: %d -> %d",
			sOrig.CriticalPath, sFused.CriticalPath)
	}
}
