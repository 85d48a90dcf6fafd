package solver

import (
	"context"
	"fmt"
	"testing"

	"sparsetask/internal/precond"
	"sparsetask/internal/rt"
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
			pr := rt.NewDeepSparse(rt.Options{Workers: tc.workers}).Prepare(l.g, l.st)
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
			pr := rt.NewDeepSparse(rt.Options{Workers: tc.workers}).Prepare(l.g, l.st)
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

// The one CG/PCG driver at k = 1 (what CG and PCG are) and at k = 4, with and
// without the level-scheduled triangular solves, on every backend's prepared
// path: BSP's persistent team, the two stealing executors, and Regent, whose
// prepared form keeps its dependency counters, ready queue and worker team
// across runs while the caller is the analysis pipeline. It replaces the
// per-driver TestCG/PCG/BatchCG/BatchPCG/RegentPrepared…SteadyIterationAllocs.
func TestKrylovSteadyIterationAllocs(t *testing.T) {
	coo := laplacian2D(24)
	n := coo.Rows
	ic, err := precond.Factorize(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	a := coo.ToCSB(32)
	for _, k := range []int{1, 4} {
		for _, m := range []*precond.IC0{nil, ic} {
			for _, tc := range allocWorkerCases() {
				opt := rt.Options{Workers: tc.workers, AnalysisCost: 1}
				for _, r := range allBackends(opt) {
					t.Run(fmt.Sprintf("k=%d/pcg=%v/%s/%s", k, m != nil, r.Name(), tc.name), func(t *testing.T) {
						c, err := newKrylov("test", a, m, k, nil, nil)
						if err != nil {
							t.Fatal(err)
						}
						c.initState(batchRHS(n, k, 3))
						pr := r.Prepare(c.g, c.st)
						defer pr.Close()
						ctx := context.Background()
						step := func() {
							c.state.it++
							if _, err := c.iterate(ctx, pr); err != nil {
								t.Fatal(err)
							}
						}
						for i := 0; i < 8; i++ {
							step()
						}
						if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
							t.Fatalf("steady-state iteration allocates %.0f times, want 0", allocs)
						}
					})
				}
			}
		}
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
			pr := rt.NewBSP(rt.Options{Workers: tc.workers}).Prepare(l.g, l.st)
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
