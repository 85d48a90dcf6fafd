package server

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"sparsetask/internal/matgen"
)

// Engine-level tests for the batch coalescer. They drive the Engine API
// directly (no HTTP) and run under -race in the Makefile matrix: the
// dispatcher, the pool, Submit, and Cancel all touch the same jobs
// concurrently.

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := NewEngine(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := e.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return e
}

func waitTerminal(t *testing.T, j *Job, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if v := j.View(); v.State.terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", j.ID, j.StateNow())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func cgSpec(mm string, seed int64) JobSpec {
	return JobSpec{Solver: "cg", Backend: "deepsparse", Matrix: MatrixSpec{MM: mm}, Seed: seed}
}

// Four same-matrix cg jobs submitted inside the coalesce window must execute
// as one multi-RHS batch, each converging on its own right-hand side.
func TestCoalesceSameMatrixBatches(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, RTWorkers: 2,
		CoalesceMax: 4, CoalesceWindow: 300 * time.Millisecond})
	mm := spdTridiagMM(24)
	jobs := make([]*Job, 4)
	for i := range jobs {
		j, err := e.Submit(cgSpec(mm, int64(i+1)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs[i] = j
	}
	var batchID string
	for i, j := range jobs {
		v := waitTerminal(t, j, 30*time.Second)
		if v.State != StateDone {
			t.Fatalf("job %d ended %s: %s", i, v.State, v.Error)
		}
		r := v.Result
		if r.BatchSize != 4 {
			t.Errorf("job %d batch_size = %d, want 4", i, r.BatchSize)
		}
		if r.BatchIndex != i {
			t.Errorf("job %d batch_index = %d, want %d (submission order)", i, r.BatchIndex, i)
		}
		if i == 0 {
			batchID = r.BatchID
			if batchID == "" {
				t.Fatal("batched job has empty batch_id")
			}
		} else if r.BatchID != batchID {
			t.Errorf("job %d batch_id = %q, want %q", i, r.BatchID, batchID)
		}
		if !r.Converged || r.Residual > 1e-8 {
			t.Errorf("job %d converged=%v residual=%.3e", i, r.Converged, r.Residual)
		}
	}
	if n := e.metrics.CoalescedBatches.Load(); n != 1 {
		t.Errorf("coalesced_batches = %d, want 1", n)
	}
	if n := e.metrics.BatchedJobs.Load(); n != 4 {
		t.Errorf("batched_jobs = %d, want 4", n)
	}
	if s := e.metrics.BatchSizes.Snapshot()["cg"]; s.Max != 4 || s.Count != 1 {
		t.Errorf("cg batch-size histogram = %+v, want one group of 4", s)
	}
}

// A batched pcg group shares one factorization and reports the batch's
// preconditioner on every member.
func TestCoalescePCGBatch(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, RTWorkers: 2,
		CoalesceMax: 4, CoalesceWindow: 300 * time.Millisecond})
	mm := spdTridiagMM(32)
	jobs := make([]*Job, 3)
	for i := range jobs {
		spec := cgSpec(mm, int64(i+1))
		spec.Solver = "pcg"
		j, err := e.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		v := waitTerminal(t, j, 30*time.Second)
		if v.State != StateDone {
			t.Fatalf("job %d ended %s: %s", i, v.State, v.Error)
		}
		if v.Result.BatchSize != 3 {
			t.Errorf("job %d batch_size = %d, want 3", i, v.Result.BatchSize)
		}
		if v.Result.Precond != "ic0" {
			t.Errorf("job %d precond = %q, want ic0", i, v.Result.Precond)
		}
	}
	if _, f := e.operators.Stats(); f.Factorizations != 1 {
		t.Errorf("factorizations = %d, want 1 (batch shares the factors)", f.Factorizations)
	}
}

// Distinct matrices must never share a batch, no matter how traffic
// interleaves. Submitters race the dispatcher from several goroutines; the
// test then audits every multi-job batch for a single matrix identity.
func TestCoalesceDistinctMatricesNeverCross(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 2, RTWorkers: 2, QueueSize: 128,
		CoalesceMax: 8, CoalesceWindow: 20 * time.Millisecond})
	mats := []string{spdTridiagMM(16), spdTridiagMM(24), spdTridiagMM(32)}

	const perWorker, submitters = 15, 4
	var mu sync.Mutex
	byID := make(map[string]JobSpec)
	var jobs []*Job
	var wg sync.WaitGroup
	wg.Add(submitters)
	for w := 0; w < submitters; w++ {
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				spec := cgSpec(mats[rng.Intn(len(mats))], rng.Int63n(100)+1)
				j, err := e.Submit(spec)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				byID[j.ID] = spec
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	batches := make(map[string][]string) // batch id -> member matrix identities
	for _, j := range jobs {
		v := waitTerminal(t, j, 60*time.Second)
		if v.State != StateDone {
			t.Fatalf("job %s ended %s: %s", v.ID, v.State, v.Error)
		}
		if v.Result.BatchID != "" {
			spec := byID[v.ID]
			batches[v.Result.BatchID] = append(batches[v.Result.BatchID], spec.Matrix.Identity())
		}
	}
	for id, idents := range batches {
		for _, ident := range idents[1:] {
			if ident != idents[0] {
				t.Fatalf("batch %s mixed matrices %s and %s", id, idents[0], ident)
			}
		}
	}
}

// Cancelling a member while it waits in the dispatcher's group removes it
// from the batch: the survivors still coalesce and the canceled job stays
// canceled.
func TestCoalesceCancelWhileQueuedExcluded(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, RTWorkers: 1,
		CoalesceMax: 4, CoalesceWindow: 200 * time.Millisecond})
	// Occupy the single worker so the cg group cannot start yet.
	blocker, err := e.Submit(JobSpec{Solver: "lobpcg", Backend: "deepsparse",
		Matrix: MatrixSpec{MM: diag4}, Iters: 500000})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for blocker.StateNow() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("blocker stuck in %s", blocker.StateNow())
		}
		time.Sleep(2 * time.Millisecond)
	}

	mm := spdTridiagMM(24)
	jobs := make([]*Job, 3)
	for i := range jobs {
		j, err := e.Submit(cgSpec(mm, int64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	e.Cancel(jobs[1]) // still queued or held by the dispatcher
	if s := jobs[1].StateNow(); s != StateCanceled {
		t.Fatalf("canceled member state = %s, want canceled", s)
	}
	e.Cancel(blocker) // free the worker

	for _, i := range []int{0, 2} {
		v := waitTerminal(t, jobs[i], 30*time.Second)
		if v.State != StateDone {
			t.Fatalf("survivor %d ended %s: %s", i, v.State, v.Error)
		}
		if v.Result.BatchSize != 2 {
			t.Errorf("survivor %d batch_size = %d, want 2", i, v.Result.BatchSize)
		}
	}
	if v := jobs[1].View(); v.State != StateCanceled {
		t.Errorf("canceled member resurrected to %s", v.State)
	}
}

// A non-batchable job between two batchable runs splits the groups without
// reordering the queue: [cg cg] lanczos [cg cg].
func TestCoalesceNonBatchableSplitsGroups(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, RTWorkers: 1,
		CoalesceMax: 8, CoalesceWindow: 500 * time.Millisecond})
	blocker, err := e.Submit(JobSpec{Solver: "lobpcg", Backend: "deepsparse",
		Matrix: MatrixSpec{MM: diag4}, Iters: 500000})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for blocker.StateNow() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("blocker stuck in %s", blocker.StateNow())
		}
		time.Sleep(2 * time.Millisecond)
	}

	mm := spdTridiagMM(24)
	var jobs []*Job
	for _, spec := range []JobSpec{
		cgSpec(mm, 1), cgSpec(mm, 2),
		{Solver: "lanczos", Backend: "deepsparse", Matrix: MatrixSpec{MM: diag4}, K: 4},
		cgSpec(mm, 3), cgSpec(mm, 4),
	} {
		j, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	e.Cancel(blocker)

	var views []JobView
	for i, j := range jobs {
		v := waitTerminal(t, j, 30*time.Second)
		if v.State != StateDone {
			t.Fatalf("job %d ended %s: %s", i, v.State, v.Error)
		}
		views = append(views, v)
	}
	first, second := views[0].Result.BatchID, views[3].Result.BatchID
	if first == "" || second == "" || first == second {
		t.Errorf("batch ids %q/%q: want two distinct non-empty batches", first, second)
	}
	if views[0].Result.BatchID != views[1].Result.BatchID {
		t.Errorf("jobs 0/1 split across batches %q/%q", views[0].Result.BatchID, views[1].Result.BatchID)
	}
	if views[3].Result.BatchID != views[4].Result.BatchID {
		t.Errorf("jobs 3/4 split across batches %q/%q", views[3].Result.BatchID, views[4].Result.BatchID)
	}
	if views[2].Result.BatchID != "" || views[2].Result.BatchSize != 0 {
		t.Errorf("lanczos job carries batch fields %+v", views[2].Result)
	}
	if len(views[2].Result.Eigenvalues) == 0 {
		t.Error("lanczos job lost its eigenvalues on the pass-through path")
	}
}

// A cg or pcg job's answer is a function of the job alone: whatever group the
// dispatcher put it in — alone behind the coalesce window, or column j of 2, 3
// or 8 — its iterations and residual are bit for bit those of the same job on
// a fresh engine with coalescing off, because a job that runs alone runs the
// same width-k program at k = 1. (Before the single-RHS driver was deleted
// this test allowed ±1 iteration.)
func TestCoalesceMatchesSingleJob(t *testing.T) {
	mm := cooMM(t, matgen.SPDLaplacian(400, 1))
	for _, solver := range []string{"cg", "pcg"} {
		spec := func(seed int64) JobSpec {
			s := cgSpec(mm, seed)
			s.Solver, s.Block = solver, 50
			return s
		}
		alone := make([]*JobResult, 8)
		for i := range alone {
			e := newTestEngine(t, Config{Workers: 1, RTWorkers: 2})
			alone[i] = solve(t, e, spec(int64(7+i)))
			if alone[i].BatchID != "" || alone[i].BatchSize != 0 || alone[i].BatchIndex != 0 {
				t.Fatalf("%s alone carries batch fields: %+v", solver, alone[i])
			}
			if s := e.metrics.BatchSizes.Snapshot()[solver]; s.Max != 1 || s.Count != 1 {
				t.Errorf("%s alone: batch-size histogram = %+v, want one group of 1", solver, s)
			}
		}
		if alone[0].Iterations < 5 {
			t.Fatalf("%s converged in %d iterations: the matrix is too easy to tell columns apart", solver, alone[0].Iterations)
		}
		for _, size := range []int{1, 2, 3, 8} {
			// A full group closes at once; the singleton waits out the window.
			cfg := Config{Workers: 1, RTWorkers: 2, CoalesceMax: size, CoalesceWindow: 10 * time.Second}
			if size == 1 {
				cfg.CoalesceMax, cfg.CoalesceWindow = 8, 20*time.Millisecond
			}
			e := newTestEngine(t, cfg)
			jobs := make([]*Job, size)
			for i := range jobs {
				j, err := e.Submit(spec(int64(7 + i)))
				if err != nil {
					t.Fatal(err)
				}
				jobs[i] = j
			}
			for i, j := range jobs {
				v := waitTerminal(t, j, 30*time.Second)
				if v.State != StateDone {
					t.Fatalf("%s job %d of %d ended %s: %s", solver, i, size, v.State, v.Error)
				}
				want := size
				if size == 1 { // a job that ran alone carries no batch fields
					want = 0
				}
				if v.Result.BatchSize != want {
					t.Fatalf("%s job %d: batch_size = %d in a group of %d", solver, i, v.Result.BatchSize, size)
				}
				sameNumbers(t, fmt.Sprintf("%s column %d of %d", solver, i, size), v.Result, alone[i])
			}
		}
		replay := solve(t, newTestEngine(t, Config{Workers: 1, RTWorkers: 2}), spec(7))
		sameNumbers(t, solver+" replayed on a fresh engine", replay, alone[0])
	}
}

// illConditionedMM is diag(1 … 1e30) on n rows, geometrically spaced. CG in
// floating point cannot resolve its spectrum: the residual grows and the
// solve exhausts its 10·n iterations, deterministically, for every seed.
func illConditionedMM(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", n, n, n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d %d %.17g\n", i+1, i+1, math.Pow(10, 30*float64(i)/float64(n-1)))
	}
	return b.String()
}

// The same job fails with the same state and the same text alone and inside
// a batch: the group path classifies a member's outcome once, from its
// column's result. Non-convergence (cg on a spectrum it cannot resolve) and
// breakdown (cg and Jacobi-fallback pcg on a negative definite matrix, which
// stop at iteration 1 instead of running 10·n iterations on a negative α).
// At the parent commit a singleton failed as "cg after N iterations (relres
// …): solver: CG did not converge" and a batched member as "cg did not
// converge after N iterations (relres …)".
func TestFailureSameAloneAndBatched(t *testing.T) {
	negDef := strings.NewReplacer(" 4.0\n", " -4.0\n", " -1.0\n", " 1.0\n").Replace(spdTridiagMM(24))
	for _, c := range []struct {
		name, solver, mm, want string
	}{
		{"non-convergence", "cg", illConditionedMM(64), "cg: did not converge after 640 iterations (relres "},
		{"breakdown", "cg", negDef, "cg: matrix is not positive definite (pᵀAp = -"},
		{"breakdown", "pcg", negDef, "pcg: matrix is not positive definite (pᵀAp = -"},
	} {
		spec := func(seed int64) JobSpec {
			s := cgSpec(c.mm, seed)
			s.Solver = c.solver
			return s
		}
		single := newTestEngine(t, Config{Workers: 1, RTWorkers: 2})
		batched := newTestEngine(t, Config{Workers: 1, RTWorkers: 2, CoalesceMax: 3, CoalesceWindow: 10 * time.Second})
		var jobs [3]*Job
		for i := range jobs {
			j, err := batched.Submit(spec(int64(i + 1)))
			if err != nil {
				t.Fatal(err)
			}
			jobs[i] = j
		}
		for i, j := range jobs {
			in := waitTerminal(t, j, 30*time.Second)
			ref, err := single.Submit(spec(int64(i + 1)))
			if err != nil {
				t.Fatal(err)
			}
			alone := waitTerminal(t, ref, 30*time.Second)
			if alone.State != StateFailed || !strings.HasPrefix(alone.Error, c.want) {
				t.Errorf("%s %s alone: %s %q, want failed %q…", c.solver, c.name, alone.State, alone.Error, c.want)
			}
			if c.name == "breakdown" && !strings.HasSuffix(alone.Error, " at iteration 1)") {
				t.Errorf("%s breakdown alone: %q, want it at iteration 1", c.solver, alone.Error)
			}
			if in.State != alone.State || in.Error != alone.Error {
				t.Errorf("%s %s seed %d: batched %s %q, alone %s %q", c.solver, c.name, i+1, in.State, in.Error, alone.State, alone.Error)
			}
		}
		if n := batched.metrics.CoalescedBatches.Load(); n != 1 {
			t.Errorf("%s %s: coalesced_batches = %d, want 1 (the jobs did not share a solve)", c.solver, c.name, n)
		}
	}
}

// A DELETE reads the same alone and inside a batch too: a member that asked
// is canceled with one text, whether its vote was the whole quorum (alone:
// the solve stops) or not (batched: the solve runs on for the other member,
// who gets its own outcome). A deadline, which only a job that runs alone can
// have, reads as the context's error.
func TestCancelSameAloneAndBatched(t *testing.T) {
	mm := illConditionedMM(1500) // 15 000 iterations: long enough to cancel into
	running := func(j *Job) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); j.StateNow() != StateRunning; {
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", j.ID, j.StateNow())
			}
			time.Sleep(time.Millisecond)
		}
	}
	single := newTestEngine(t, Config{Workers: 1, RTWorkers: 2})
	alone, err := single.Submit(cgSpec(mm, 1))
	if err != nil {
		t.Fatal(err)
	}
	running(alone)
	single.Cancel(alone)
	av := waitTerminal(t, alone, 30*time.Second)
	if av.State != StateCanceled || av.Error != "canceled while running" {
		t.Errorf("alone: %s %q, want canceled %q", av.State, av.Error, "canceled while running")
	}

	batched := newTestEngine(t, Config{Workers: 1, RTWorkers: 2, CoalesceMax: 2, CoalesceWindow: 10 * time.Second})
	var jobs [2]*Job
	for i := range jobs {
		if jobs[i], err = batched.Submit(cgSpec(mm, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	running(jobs[0])
	batched.Cancel(jobs[0])
	if v := waitTerminal(t, jobs[0], 120*time.Second); v.State != av.State || v.Error != av.Error {
		t.Errorf("batched voter: %s %q, alone %s %q", v.State, v.Error, av.State, av.Error)
	}
	if v := waitTerminal(t, jobs[1], 120*time.Second); v.State != StateFailed || !strings.HasPrefix(v.Error, "cg: did not converge after 15000 iterations") {
		t.Errorf("batched non-voter: %s %q, want its own non-convergence", v.State, v.Error)
	}

	timed := cgSpec(mm, 1)
	timed.DeadlineMS = 50
	late, err := single.Submit(timed)
	if err != nil {
		t.Fatal(err)
	}
	if v := waitTerminal(t, late, 30*time.Second); v.State != StateCanceled || v.Error != context.DeadlineExceeded.Error() {
		t.Errorf("deadline: %s %q, want canceled %q", v.State, v.Error, context.DeadlineExceeded.Error())
	}
}
