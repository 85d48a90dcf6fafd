package rt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparsetask/internal/graph"
	"sparsetask/internal/kernels"
	"sparsetask/internal/program"
	"sparsetask/internal/sparse"
	"sparsetask/internal/topo"
	"sparsetask/internal/trace"
)

// testProblem builds a Listing-1-style program (SpMM → XY → XTY → norm →
// scale) over a random symmetric matrix, plus a filled store factory so each
// runtime execution starts from identical inputs.
func testProblem(t *testing.T, m, block, n int, seed int64) (*graph.TDG, func() *program.Store) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	coo := sparse.NewCOO(m, m, m*8)
	for i := 0; i < m; i++ {
		coo.Append(int32(i), int32(i), 4+rng.Float64())
	}
	for k := 0; k < m*3; k++ {
		i, j := int32(rng.Intn(m)), int32(rng.Intn(m))
		if i == j {
			continue
		}
		v := rng.NormFloat64()
		coo.Append(i, j, v)
		coo.Append(j, i, v)
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
	nrm := p.Scalar("nrm")
	W := p.Vec("W", n)
	p.SpMM(Y, A, X)
	p.Gemm(Q, 1, Y, Z, 0).MarkIndexLaunch()
	p.GemmT(P, Y, Q)
	p.Norm(nrm, Y)
	p.ScaleInv(W, Y, nrm)
	p.Axpby(X, 0.5, X, 0.5, W)

	g, err := graph.Build(p, map[program.OperandID]*sparse.CSB{A: csb}, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	xInit := make([]float64, m*n)
	zInit := make([]float64, n*n)
	for i := range xInit {
		xInit[i] = rng.NormFloat64()
	}
	for i := range zInit {
		zInit[i] = rng.NormFloat64()
	}
	mk := func() *program.Store {
		st := program.NewStore(p)
		st.SetSparse(A, csb)
		copy(st.Vec[X], xInit)
		copy(st.Small[Z], zInit)
		return st
	}
	return g, mk
}

func storesEqual(t *testing.T, name string, a, b *program.Store) {
	t.Helper()
	for op := range a.Vec {
		if a.Vec[op] == nil {
			continue
		}
		for i := range a.Vec[op] {
			if a.Vec[op][i] != b.Vec[op][i] {
				t.Fatalf("%s: vec operand %d element %d: %v != %v", name, op, i, a.Vec[op][i], b.Vec[op][i])
			}
		}
	}
	for op := range a.Small {
		if a.Small[op] == nil {
			continue
		}
		for i := range a.Small[op] {
			if a.Small[op][i] != b.Small[op][i] {
				t.Fatalf("%s: small operand %d element %d differs", name, op, i)
			}
		}
	}
	for op := range a.Scalars {
		if a.Scalars[op] != b.Scalars[op] {
			t.Fatalf("%s: scalar %d: %v != %v", name, op, a.Scalars[op], b.Scalars[op])
		}
	}
}

func allRuntimes(opt Options) []Runtime {
	return []Runtime{
		NewBSP(opt),
		NewDeepSparse(opt),
		NewHPX(opt),
		NewRegent(opt),
	}
}

func TestAllRuntimesMatchSequential(t *testing.T) {
	g, mk := testProblem(t, 60, 13, 3, 1)
	ref := mk()
	kernels.RunSequential(g, ref)
	for _, r := range allRuntimes(Options{Workers: 4}) {
		st := mk()
		r.Run(context.Background(), g, st)
		storesEqual(t, r.Name(), ref, st)
	}
}

func TestRuntimesRepeatedIterations(t *testing.T) {
	// Iterative execution (the solver pattern): run the same graph 5 times;
	// every runtime must agree with sequential at the end. The Axpby back
	// into X makes iterations actually feed forward.
	g, mk := testProblem(t, 40, 8, 2, 2)
	ref := mk()
	for it := 0; it < 5; it++ {
		kernels.RunSequential(g, ref)
	}
	for _, r := range allRuntimes(Options{Workers: 3}) {
		st := mk()
		for it := 0; it < 5; it++ {
			r.Run(context.Background(), g, st)
		}
		storesEqual(t, r.Name(), ref, st)
	}
}

func TestHPXNUMADomains(t *testing.T) {
	g, mk := testProblem(t, 60, 6, 2, 3)
	ref := mk()
	kernels.RunSequential(g, ref)
	r := NewHPX(Options{Workers: 4, NUMADomains: 2})
	st := mk()
	r.Run(context.Background(), g, st)
	storesEqual(t, "hpx-numa", ref, st)
}

func TestTopologyRuntimesMatchSequential(t *testing.T) {
	// Multi-domain topologies change only where tasks run, never results:
	// every stealing backend must stay bit-identical to sequential on both
	// paper profiles, repeated iterations included. The locality reporters
	// must also account for every executed task.
	for _, tp := range []topo.Topology{topo.Broadwell(), topo.EPYC()} {
		g, mk := testProblem(t, 60, 6, 2, 9)
		ref := mk()
		for it := 0; it < 3; it++ {
			kernels.RunSequential(g, ref)
		}
		for _, r := range []Runtime{
			NewDeepSparse(Options{Workers: 4, Topo: tp}),
			NewHPX(Options{Workers: 4, Topo: tp}),
			NewRegent(Options{Workers: 4, Topo: tp}),
		} {
			st := mk()
			for it := 0; it < 3; it++ {
				if err := r.Run(context.Background(), g, st); err != nil {
					t.Fatalf("%s/%s: %v", r.Name(), tp, err)
				}
			}
			storesEqual(t, r.Name()+"/"+tp.String(), ref, st)
			lr, ok := r.(LocalityReporter)
			if !ok {
				t.Fatalf("%s does not report locality", r.Name())
			}
			s := lr.Locality()
			if got, want := s.Tasks(), int64(3*len(g.Tasks)); got != want {
				t.Errorf("%s/%s: locality counted %d tasks, want %d", r.Name(), tp, got, want)
			}
		}
	}
}

func TestPreparedRunReportsLocality(t *testing.T) {
	g, mk := testProblem(t, 60, 6, 2, 10)
	r := NewDeepSparse(Options{Workers: 4, Topo: topo.EPYC()})
	p := r.Prepare(g, mk())
	lr, ok := p.(LocalityReporter)
	if !ok {
		t.Fatal("prepared run does not report locality")
	}
	for it := 0; it < 2; it++ {
		if err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := lr.Locality().Tasks(), int64(2*len(g.Tasks)); got != want {
		t.Errorf("prepared-run locality counted %d tasks, want %d", got, want)
	}
	p.Close()
	// Close folds the handle's counters into the runtime's lifetime total.
	if got, want := r.Locality().Tasks(), int64(2*len(g.Tasks)); got != want {
		t.Errorf("runtime lifetime locality counted %d tasks, want %d", got, want)
	}
}

func TestRegentIndexLaunchSkipsAnalysis(t *testing.T) {
	g, mk := testProblem(t, 60, 6, 2, 4)
	r := NewRegent(Options{Workers: 2, AnalysisCost: 10})
	r.Run(context.Background(), g, mk())
	withIL := r.LastAnalyzed
	if withIL >= len(g.Tasks) {
		t.Errorf("analyzed %d of %d tasks; index launch should have skipped some", withIL, len(g.Tasks))
	}
	// The XY call was marked as an index launch with NP=10 partitions: 9 of
	// its 10 tasks skip analysis.
	if want := len(g.Tasks) - (g.Prog.NP - 1); withIL != want {
		t.Errorf("analyzed = %d, want %d", withIL, want)
	}
}

func TestRegentDynamicTracing(t *testing.T) {
	g, mk := testProblem(t, 40, 8, 2, 5)
	r := NewRegent(Options{Workers: 2, AnalysisCost: 10, DynamicTracing: true})
	st := mk()
	// The memo lives in the prepared run: its first Run analyses, later ones
	// replay.
	pr := PrepareRun(r, g, st)
	defer pr.Close()
	if err := pr.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	first := r.LastAnalyzed
	if err := pr.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if r.LastAnalyzed != 0 {
		t.Errorf("replay analyzed %d tasks, want 0 (memoized)", r.LastAnalyzed)
	}
	if first == 0 {
		t.Error("first run analyzed 0 tasks")
	}
	// Runtime.Run is one-shot: nothing is retained between calls, so a graph
	// it has run before is analysed again.
	oneShot := mk()
	r.Run(context.Background(), g, oneShot)
	r.Run(context.Background(), g, oneShot)
	if r.LastAnalyzed != first {
		t.Errorf("one-shot rerun analyzed %d tasks, want %d", r.LastAnalyzed, first)
	}
	// Numerics must still match two sequential iterations.
	ref := mk()
	kernels.RunSequential(g, ref)
	kernels.RunSequential(g, ref)
	storesEqual(t, "regent-tracing", ref, st)
}

func TestTraceRecorderCapturesAllTasks(t *testing.T) {
	for _, mkrt := range []func(Options) Runtime{
		func(o Options) Runtime { return NewBSP(o) },
		func(o Options) Runtime { return NewDeepSparse(o) },
		func(o Options) Runtime { return NewHPX(o) },
		func(o Options) Runtime { return NewRegent(o) },
	} {
		g, mk := testProblem(t, 40, 8, 2, 6)
		rec := trace.NewRecorder(3)
		r := mkrt(Options{Workers: 3, Recorder: rec})
		r.Run(context.Background(), g, mk())
		evs := rec.Events()
		if len(evs) != len(g.Tasks) {
			t.Errorf("%s: recorded %d events, want %d", r.Name(), len(evs), len(g.Tasks))
		}
		for _, e := range evs {
			if e.End < e.Start {
				t.Errorf("%s: event with End < Start", r.Name())
			}
			if e.Kernel == "" {
				t.Errorf("%s: event missing kernel name", r.Name())
			}
		}
	}
}

func TestBSPBarrierOrdering(t *testing.T) {
	// In BSP, no task of call k+1 may start before every task of call k
	// finishes. Check via the trace.
	g, mk := testProblem(t, 60, 6, 2, 7)
	rec := trace.NewRecorder(4)
	r := NewBSP(Options{Workers: 4, Recorder: rec})
	r.Run(context.Background(), g, mk())
	evs := rec.Events()
	// End of the last event of call c must precede start of first of c+1...
	// except serial tasks share worker time; compare per call boundaries.
	lastEnd := map[int32]int64{}
	firstStart := map[int32]int64{}
	for _, e := range evs {
		if _, ok := firstStart[e.Call]; !ok || e.Start < firstStart[e.Call] {
			firstStart[e.Call] = e.Start
		}
		if e.End > lastEnd[e.Call] {
			lastEnd[e.Call] = e.End
		}
	}
	for c := int32(0); c < int32(len(g.Prog.Calls))-1; c++ {
		if _, ok := lastEnd[c]; !ok {
			continue
		}
		if firstStart[c+1] < lastEnd[c] {
			t.Errorf("call %d started at %d before call %d ended at %d (barrier violated)",
				c+1, firstStart[c+1], c, lastEnd[c])
		}
	}
}

func TestScaleInvProducesUnitNorm(t *testing.T) {
	// End-to-end sanity on the scalar-dependent kernel chain under the most
	// aggressive scheduler.
	g, mk := testProblem(t, 60, 13, 3, 8)
	r := NewDeepSparse(Options{Workers: 4})
	st := mk()
	r.Run(context.Background(), g, st)
	// W = Y/||Y|| so ||W|| == 1.
	var s float64
	for _, v := range st.Vec[7] { // W is operand 7 in construction order
		s += v * v
	}
	if math.Abs(math.Sqrt(s)-1) > 1e-10 {
		t.Errorf("||W|| = %v, want 1", math.Sqrt(s))
	}
}

func TestTaskPanicPropagatesToCaller(t *testing.T) {
	// A panicking small step must surface on the Run caller's goroutine for
	// every runtime, without deadlocking or leaking workers.
	build := func() (*graph.TDG, *program.Store) {
		p := program.New(16, 4)
		x := p.Vec("x", 1)
		s := p.Scalar("s")
		p.Dot(s, x, x)
		p.SmallStep("boom", func(*program.Store) { panic("kaboom") },
			[]program.OperandID{s}, []program.OperandID{s})
		g, err := graph.Build(p, nil, graph.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return g, program.NewStore(p)
	}
	for _, r := range allRuntimes(Options{Workers: 3}) {
		g, st := build()
		func() {
			defer func() {
				rec := recover()
				if rec == nil {
					t.Errorf("%s: panic did not propagate", r.Name())
					return
				}
				if rec != "kaboom" {
					t.Errorf("%s: panic value %v, want kaboom", r.Name(), rec)
				}
			}()
			r.Run(context.Background(), g, st)
		}()
	}
	// The process must remain healthy: a fresh run on a healthy graph works.
	g, mk := testProblem(t, 40, 8, 2, 99)
	for _, r := range allRuntimes(Options{Workers: 3}) {
		r.Run(context.Background(), g, mk())
	}
}

func TestRunPreCancelledContext(t *testing.T) {
	// A context cancelled before Run starts must stop every runtime without
	// executing the full graph.
	for _, r := range allRuntimes(Options{Workers: 3}) {
		g, mk := testProblem(t, 60, 6, 2, 21)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := r.Run(ctx, g, mk()); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Run with pre-cancelled ctx returned %v, want context.Canceled", r.Name(), err)
		}
	}
}

func TestRunMidExecutionCancellation(t *testing.T) {
	// Cancel from inside a running task: a serial chain of small steps where
	// step 2 cancels the context. Every runtime must stop short of the end of
	// the chain and report the context error. The post-cancel steps sleep a
	// little so the shutdown path has time to land even on a loaded machine.
	for _, mkrt := range []func(Options) Runtime{
		func(o Options) Runtime { return NewBSP(o) },
		func(o Options) Runtime { return NewDeepSparse(o) },
		func(o Options) Runtime { return NewHPX(o) },
		func(o Options) Runtime { return NewRegent(o) },
	} {
		r := mkrt(Options{Workers: 3})
		ctx, cancel := context.WithCancel(context.Background())
		const steps = 32
		var ran atomic.Int32
		p := program.New(16, 4)
		s := p.Scalar("s")
		x := p.Vec("x", 1)
		p.Dot(s, x, x)
		for i := 0; i < steps; i++ {
			i := i
			p.SmallStep(fmt.Sprintf("step%d", i), func(*program.Store) {
				ran.Add(1)
				if i == 2 {
					cancel()
					time.Sleep(100 * time.Millisecond)
				} else if i > 2 {
					time.Sleep(5 * time.Millisecond)
				}
			}, []program.OperandID{s}, []program.OperandID{s})
		}
		g, err := graph.Build(p, nil, graph.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		err = r.Run(ctx, g, program.NewStore(p))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Run returned %v, want context.Canceled", r.Name(), err)
		}
		if n := ran.Load(); n >= steps {
			t.Errorf("%s: all %d steps ran despite mid-execution cancel", r.Name(), n)
		}
	}
}

func TestConcurrentRunSingleRuntimeInstance(t *testing.T) {
	// The serving layer's access pattern: one Runtime instance per backend,
	// shared by many concurrently executing jobs, each with its own TDG and
	// store. Must be clean under -race and numerically identical to the
	// sequential reference for every job.
	const jobs = 6
	for _, r := range allRuntimes(Options{Workers: 2}) {
		graphs := make([]*graph.TDG, jobs)
		refs := make([]*program.Store, jobs)
		stores := make([]*program.Store, jobs)
		for j := 0; j < jobs; j++ {
			g, mk := testProblem(t, 40, 8, 2, int64(100+j))
			graphs[j] = g
			refs[j] = mk()
			kernels.RunSequential(g, refs[j])
			stores[j] = mk()
		}
		var wg sync.WaitGroup
		errs := make([]error, jobs)
		for j := 0; j < jobs; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				errs[j] = r.Run(context.Background(), graphs[j], stores[j])
			}(j)
		}
		wg.Wait()
		for j := 0; j < jobs; j++ {
			if errs[j] != nil {
				t.Fatalf("%s: job %d: %v", r.Name(), j, errs[j])
			}
			storesEqual(t, fmt.Sprintf("%s-job%d", r.Name(), j), refs[j], stores[j])
		}
	}
	// Regent with tracing on: the memo is per prepared run, so concurrent
	// one-shot runs share nothing but LastAnalyzed.
	r := NewRegent(Options{Workers: 2, DynamicTracing: true, AnalysisCost: 10})
	g, mk := testProblem(t, 40, 8, 2, 200)
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g2, mk2 := testProblem(t, 30, 6, 2, 201)
			if err := r.Run(context.Background(), g2, mk2()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := r.Run(context.Background(), g, mk()); err != nil {
		t.Fatal(err)
	}
}
