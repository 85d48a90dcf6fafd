package sim

import (
	"math/rand"
	"testing"

	"sparsetask/internal/cachesim"
	"sparsetask/internal/graph"
	"sparsetask/internal/machine"
	"sparsetask/internal/matgen"
	"sparsetask/internal/program"
	"sparsetask/internal/solver"
	"sparsetask/internal/sparse"
	"sparsetask/internal/trace"
)

// testGraph builds a Listing-1 style TDG over a random matrix.
func testGraph(t *testing.T, m, block, n int, seed int64) *graph.TDG {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coo := sparse.NewCOO(m, m, m*6)
	for i := 0; i < m; i++ {
		coo.Append(int32(i), int32(i), 4)
	}
	for k := 0; k < m*4; k++ {
		i, j := int32(rng.Intn(m)), int32(rng.Intn(m))
		if i != j {
			coo.Append(i, j, 0.1)
			coo.Append(j, i, 0.1)
		}
	}
	coo.Compact()
	csb := coo.ToCSB(block)
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
	g, err := graph.Build(p, map[program.OperandID]*sparse.CSB{A: csb}, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func allPolicies(w int) []Policy {
	return []Policy{
		NewBSP(w),
		NewDeepSparse(w),
		NewHPX(w, 2, true),
		NewRegent(w-1, 1, false),
	}
}

func TestAllPoliciesCompleteAllTasks(t *testing.T) {
	g := testGraph(t, 512, 64, 4, 1)
	for _, pol := range allPolicies(8) {
		s := New(machine.Broadwell(), true)
		res, err := s.Run(g, pol, nil)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if res.Tasks != len(g.Tasks) {
			t.Errorf("%s: %d tasks simulated, want %d", pol.Name(), res.Tasks, len(g.Tasks))
		}
		if res.MakespanNs <= 0 {
			t.Errorf("%s: nonpositive makespan", pol.Name())
		}
		if res.BusyNs > res.MakespanNs*int64(pol.Workers()) {
			t.Errorf("%s: busy time %d exceeds capacity %d", pol.Name(), res.BusyNs, res.MakespanNs*int64(pol.Workers()))
		}
	}
}

func TestSimDeterministic(t *testing.T) {
	g := testGraph(t, 512, 64, 4, 2)
	for _, mk := range []func() Policy{
		func() Policy { return NewBSP(8) },
		func() Policy { return NewDeepSparse(8) },
		func() Policy { return NewHPX(8, 2, true) },
		func() Policy { return NewRegent(7, 1, true) },
	} {
		s1 := New(machine.Broadwell(), true)
		r1, err := s1.Run(g, mk(), nil)
		if err != nil {
			t.Fatal(err)
		}
		s2 := New(machine.Broadwell(), true)
		r2, err := s2.Run(g, mk(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if r1.MakespanNs != r2.MakespanNs || r1.Counters != r2.Counters {
			t.Errorf("%s: nondeterministic simulation", mk().Name())
		}
	}
}

func TestMoreCoresFaster(t *testing.T) {
	g := testGraph(t, 2048, 128, 8, 3)
	s4 := New(machine.Broadwell(), true)
	r4, err := s4.Run(g, NewDeepSparse(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	s16 := New(machine.Broadwell(), true)
	r16, err := s16.Run(g, NewDeepSparse(16), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r16.MakespanNs >= r4.MakespanNs {
		t.Errorf("16 cores (%d ns) not faster than 4 cores (%d ns)", r16.MakespanNs, r4.MakespanNs)
	}
}

func TestWarmCacheSecondIteration(t *testing.T) {
	// Second execution of the same graph must see more cache hits.
	g := testGraph(t, 512, 64, 4, 4)
	s := New(machine.Broadwell(), true)
	r1, err := s.Run(g, NewDeepSparse(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run(g, NewDeepSparse(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	h1 := float64(r1.Counters.L1Hit+r1.Counters.L2Hit+r1.Counters.L3Hit) /
		float64(r1.Counters.L1Hit+r1.Counters.L1Miss)
	h2 := float64(r2.Counters.L1Hit+r2.Counters.L2Hit+r2.Counters.L3Hit) /
		float64(r2.Counters.L1Hit+r2.Counters.L1Miss)
	if h2 <= h1 {
		t.Errorf("warm iteration hit fraction %v not above cold %v", h2, h1)
	}
}

func TestMeasureIsWarmupPlusRuns(t *testing.T) {
	g := testGraph(t, 512, 64, 4, 5)
	const iters = 3
	s := New(machine.EPYC(), true)
	s.PlaceFirstTouch(g, 16)
	mean, ctr, err := s.Measure(g, NewHPX(16, 8, true), iters, nil)
	if err != nil {
		t.Fatal(err)
	}

	ref := New(machine.EPYC(), true)
	ref.PlaceFirstTouch(g, 16)
	pol := NewHPX(16, 8, true)
	if _, err := ref.Run(g, pol, nil); err != nil {
		t.Fatal(err)
	}
	var total int64
	var want cachesim.Counters
	for i := 0; i < iters; i++ {
		r, err := ref.Run(g, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		total += r.MakespanNs
		want.Add(r.Counters)
	}
	if wantMean := float64(total) / iters; mean != wantMean {
		t.Errorf("mean %v, want %v", mean, wantMean)
	}
	if ctr != want {
		t.Errorf("counters %+v, want %+v", ctr, want)
	}

	if _, _, err := New(machine.EPYC(), true).Measure(g, pol, 0, nil); err == nil {
		t.Error("iters = 0 must be an error")
	}
}

func TestFirstTouchBeatsSerialPlacement(t *testing.T) {
	// On the NUMA-heavy EPYC model, first-touch placement must beat
	// serial (domain-0) placement — the effect of paper Fig. 5. A banded
	// FEM matrix keeps most tile accesses near the diagonal, where
	// partition-aligned placement pays off.
	coo := matgen.FEM3D(11, 11, 11, 2, 7, 5)
	block := (coo.Rows + 63) / 64 // NP = 64
	csb := coo.ToCSB(block)
	p := program.New(coo.Rows, block)
	A := p.Sparse("A")
	X := p.Vec("X", 4)
	Y := p.Vec("Y", 4)
	p.SpMM(Y, A, X)
	p.Axpby(X, 0.5, X, 0.5, Y)
	g, err := graph.Build(p, map[program.OperandID]*sparse.CSB{A: csb}, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Slow the machine so task compute dominates the serial spawn pipeline
	// (as at experiment scale); otherwise both placements are spawn-bound
	// and indistinguishable.
	mach := machine.EPYC().SlowDown(32)
	sFT := New(mach, true)
	sFT.PlaceFirstTouch(g, 128)
	rFT, err := sFT.Run(g, NewDeepSparse(128), nil)
	if err != nil {
		t.Fatal(err)
	}
	sSer := New(mach, false)
	sSer.PlaceSerial(g)
	rSer, err := sSer.Run(g, NewDeepSparse(128), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Serial placement funnels all memory lines through domain 0's
	// controller; first touch spreads them (the paper's Fig. 5 effect is
	// this bandwidth hotspot, measured as execution time).
	serDom0 := rSer.Counters.DomLines[0]
	if serDom0 != rSer.Counters.L3Miss {
		t.Errorf("serial placement: domain 0 served %d of %d lines, want all",
			serDom0, rSer.Counters.L3Miss)
	}
	ftDom0 := rFT.Counters.DomLines[0]
	if ftDom0*2 > rFT.Counters.L3Miss {
		t.Errorf("first touch: domain 0 still serves %d of %d lines",
			ftDom0, rFT.Counters.L3Miss)
	}
	if rFT.MakespanNs >= rSer.MakespanNs {
		t.Errorf("first touch (%d ns) not faster than serial placement (%d ns)",
			rFT.MakespanNs, rSer.MakespanNs)
	}
}

func TestBSPBarriersInSimTrace(t *testing.T) {
	g := testGraph(t, 512, 64, 4, 6)
	s := New(machine.Broadwell(), true)
	rec := trace.NewRecorder(8)
	if _, err := s.Run(g, NewBSP(8), rec); err != nil {
		t.Fatal(err)
	}
	lastEnd := map[int32]int64{}
	firstStart := map[int32]int64{}
	for _, e := range rec.Events() {
		if fs, ok := firstStart[e.Call]; !ok || e.Start < fs {
			firstStart[e.Call] = e.Start
		}
		if e.End > lastEnd[e.Call] {
			lastEnd[e.Call] = e.End
		}
	}
	for c := int32(0); c < int32(len(g.Prog.Calls))-1; c++ {
		if firstStart[c+1] < lastEnd[c] {
			t.Errorf("sim BSP barrier violated between calls %d and %d", c, c+1)
		}
	}
}

func TestAMTOverlapsKernelsBSPDoesNot(t *testing.T) {
	g := testGraph(t, 1024, 64, 8, 7)
	recB := trace.NewRecorder(8)
	sb := New(machine.Broadwell(), true)
	if _, err := sb.Run(g, NewBSP(8), recB); err != nil {
		t.Fatal(err)
	}
	recD := trace.NewRecorder(8)
	sd := New(machine.Broadwell(), true)
	if _, err := sd.Run(g, NewDeepSparse(8), recD); err != nil {
		t.Fatal(err)
	}
	if ovB, ovD := recB.PipelineOverlap(), recD.PipelineOverlap(); ovD <= ovB {
		t.Errorf("DeepSparse overlap %v not above BSP %v", ovD, ovB)
	}
}

func TestRegentAnalysisDominatesManyTasks(t *testing.T) {
	// Same matrix, two block sizes: tiny blocks create ~100x more tasks.
	// Regent's serial analysis pipeline should blow up its makespan much
	// more than DeepSparse's.
	coo := matgen.FEM3D(12, 12, 12, 1, 27, 1)
	buildG := func(block int) *graph.TDG {
		csb := coo.ToCSB(block)
		p := program.New(coo.Rows, block)
		A := p.Sparse("A")
		X := p.Vec("X", 1)
		Y := p.Vec("Y", 1)
		p.SpMM(Y, A, X)
		g, err := graph.Build(p, map[program.OperandID]*sparse.CSB{A: csb}, graph.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	gCoarse := buildG(coo.Rows / 8)
	gFine := buildG(coo.Rows / 256)

	ratio := func(mk func() Policy) float64 {
		s1 := New(machine.Broadwell(), true)
		rc, err := s1.Run(gCoarse, mk(), nil)
		if err != nil {
			t.Fatal(err)
		}
		s2 := New(machine.Broadwell(), true)
		rf, err := s2.Run(gFine, mk(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return float64(rf.MakespanNs) / float64(rc.MakespanNs)
	}
	rRegent := ratio(func() Policy { return NewRegent(24, 4, false) })
	rDS := ratio(func() Policy { return NewDeepSparse(28) })
	if rRegent <= rDS {
		t.Errorf("Regent fine/coarse slowdown %.2f should exceed DeepSparse %.2f", rRegent, rDS)
	}
}

func TestSimWithSolverGraphs(t *testing.T) {
	// End-to-end: simulate one iteration of each solver's real TDG.
	coo := matgen.KKT(8, 3)
	csb := coo.ToCSB(128)
	lz, err := solver.NewLanczos(csb, 10)
	if err != nil {
		t.Fatal(err)
	}
	lob, err := solver.NewLOBPCG(csb, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.TDG{lz.Graph(), lob.Graph()} {
		s := New(machine.EPYC(), true)
		res, err := s.Run(g, NewHPX(128, 8, true), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tasks != len(g.Tasks) {
			t.Errorf("simulated %d of %d tasks", res.Tasks, len(g.Tasks))
		}
	}
}

func TestSimEmptyGraph(t *testing.T) {
	p := program.New(8, 4)
	g, err := graph.Build(p, nil, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := New(machine.Broadwell(), true)
	res, err := s.Run(g, NewDeepSparse(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks != 0 || res.MakespanNs != 0 {
		t.Errorf("empty graph result %+v", res)
	}
}

func TestMakespanRespectsLowerBounds(t *testing.T) {
	// The simulated makespan can never beat the work/span lower bounds
	// under the pure-flop cost model (memory and overheads only add time).
	g := testGraph(t, 1024, 64, 8, 11)
	mach := machine.Broadwell()
	b := g.FlopBounds()
	for _, pol := range allPolicies(16) {
		s := New(mach, true)
		r, err := s.Run(g, pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		lb := b.LowerBound(pol.Workers()) / mach.FlopsPerNs
		if float64(r.MakespanNs) < lb {
			t.Errorf("%s: makespan %d beats flop lower bound %.0f", pol.Name(), r.MakespanNs, lb)
		}
	}
}
