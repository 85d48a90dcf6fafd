package solver

import (
	"context"
	"testing"

	"sparsetask/internal/precond"
	"sparsetask/internal/rt"
	"sparsetask/internal/sparse"
)

// These are the allocation-regression gates for the zero-allocation solver
// iteration work: after warmup, a steady-state iteration of each solver must
// perform no heap allocations — the graph, store, prepared executor,
// workspace arena, and recurrence buffers are all reused. Both the
// single-worker inline executor path and the persistent worker pool are
// covered.

func allocWorkerCases() []struct {
	name    string
	workers int
} {
	return []struct {
		name    string
		workers int
	}{
		{"inline1", 1},
		{"pool2", 2},
	}
}

func TestLanczosSteadyIterationAllocs(t *testing.T) {
	a := laplacian1D(600).ToCSB(64)
	for _, tc := range allocWorkerCases() {
		t.Run(tc.name, func(t *testing.T) {
			l, err := NewLanczos(a, 48)
			if err != nil {
				t.Fatal(err)
			}
			l.initState(1)
			pr := rt.PrepareRun(rt.NewDeepSparse(rt.Options{Workers: tc.workers}), l.g, l.st)
			defer pr.Close()
			ctx := context.Background()
			var res Result
			it := 0
			step := func() {
				it++
				stop, err := l.iterate(ctx, pr, it, &res)
				if err != nil || stop {
					t.Fatalf("iteration %d ended early: stop=%v err=%v", it, stop, err)
				}
			}
			for i := 0; i < 8; i++ {
				step() // warm scheduler rings and routing buffers
			}
			if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
				t.Fatalf("steady-state Lanczos iteration allocates %.0f times, want 0", allocs)
			}
		})
	}
}

func TestLOBPCGSteadyIterationAllocs(t *testing.T) {
	a := laplacian1D(600).ToCSB(64)
	for _, tc := range allocWorkerCases() {
		t.Run(tc.name, func(t *testing.T) {
			l, err := NewLOBPCG(a, 4)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.initState(1); err != nil {
				t.Fatal(err)
			}
			pr := rt.PrepareRun(rt.NewDeepSparse(rt.Options{Workers: tc.workers}), l.g, l.st)
			defer pr.Close()
			ctx := context.Background()
			step := func() {
				if _, err := l.iterate(ctx, pr); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
				t.Fatalf("steady-state LOBPCG iteration allocates %.0f times, want 0", allocs)
			}
		})
	}
}

func TestCGSteadyIterationAllocs(t *testing.T) {
	a := laplacian1D(600).ToCSB(64)
	b := RandomRHS(600, 3)
	for _, tc := range allocWorkerCases() {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCG(a)
			if err != nil {
				t.Fatal(err)
			}
			c.initState(b)
			pr := rt.PrepareRun(rt.NewDeepSparse(rt.Options{Workers: tc.workers}), c.g, c.st)
			defer pr.Close()
			ctx := context.Background()
			step := func() {
				if _, err := c.iterate(ctx, pr); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
				t.Fatalf("steady-state CG iteration allocates %.0f times, want 0", allocs)
			}
		})
	}
}

// The BSP backend's prepared form must be allocation-free as well: with one
// worker it runs the chains inline (it is the nil-runtime default), with two
// its persistent team crosses a barrier per kernel without forking anything.
func TestBSPPreparedSteadyIterationAllocs(t *testing.T) {
	a := laplacian1D(600).ToCSB(64)
	for _, tc := range allocWorkerCases() {
		t.Run(tc.name, func(t *testing.T) {
			l, err := NewLanczos(a, 48)
			if err != nil {
				t.Fatal(err)
			}
			l.initState(1)
			pr := rt.PrepareRun(rt.NewBSP(rt.Options{Workers: tc.workers}), l.g, l.st)
			defer pr.Close()
			ctx := context.Background()
			var res Result
			it := 0
			step := func() {
				it++
				stop, err := l.iterate(ctx, pr, it, &res)
				if err != nil || stop {
					t.Fatalf("iteration %d ended early: stop=%v err=%v", it, stop, err)
				}
			}
			for i := 0; i < 4; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
				t.Fatalf("steady-state BSP-prepared iteration allocates %.0f times, want 0", allocs)
			}
		})
	}
}

// Regent's prepared form keeps its dependency counters, ready queue and
// worker team across runs; the caller is the analysis pipeline. Nothing is
// rebuilt per iteration.
func TestRegentPreparedSteadyIterationAllocs(t *testing.T) {
	a := laplacian1D(600).ToCSB(64)
	b := RandomRHS(600, 3)
	for _, tc := range allocWorkerCases() {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCG(a)
			if err != nil {
				t.Fatal(err)
			}
			c.initState(b)
			pr := rt.PrepareRun(rt.NewRegent(rt.Options{Workers: tc.workers, AnalysisCost: 1}), c.g, c.st)
			defer pr.Close()
			ctx := context.Background()
			step := func() {
				if _, err := c.iterate(ctx, pr); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
				t.Fatalf("steady-state Regent-prepared iteration allocates %.0f times, want 0", allocs)
			}
		})
	}
}

// PCG adds the level-scheduled triangular solves to the iteration; they must
// be allocation-free too (range-form substitution over preallocated factors).
func TestPCGSteadyIterationAllocs(t *testing.T) {
	coo := laplacian1D(600)
	m, err := precondFactorize(t, coo)
	if err != nil {
		t.Fatal(err)
	}
	a := coo.ToCSB(64)
	b := RandomRHS(600, 3)
	for _, tc := range allocWorkerCases() {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewPCG(a, m)
			if err != nil {
				t.Fatal(err)
			}
			c.initState(b)
			pr := rt.PrepareRun(rt.NewDeepSparse(rt.Options{Workers: tc.workers}), c.g, c.st)
			defer pr.Close()
			ctx := context.Background()
			step := func() {
				if _, err := c.iterate(ctx, pr); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
				t.Fatalf("steady-state PCG iteration allocates %.0f times, want 0", allocs)
			}
		})
	}
}

// precondFactorize is a tiny helper keeping the alloc test's imports local.
func precondFactorize(t *testing.T, coo *sparse.COO) (*precond.IC0, error) {
	t.Helper()
	return precond.Factorize(coo.ToCSR())
}
