package server

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"
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

// A batched job must agree with the same job solved alone: the multi-RHS
// iteration is column-independent, so iteration counts match exactly and
// solutions agree to solver tolerance.
func TestCoalesceMatchesSingleJob(t *testing.T) {
	mm := spdTridiagMM(40)

	single := newTestEngine(t, Config{Workers: 1, RTWorkers: 2}) // coalescing off
	ref, err := single.Submit(cgSpec(mm, 7))
	if err != nil {
		t.Fatal(err)
	}
	refView := waitTerminal(t, ref, 30*time.Second)
	if refView.State != StateDone {
		t.Fatalf("reference job ended %s: %s", refView.State, refView.Error)
	}

	batched := newTestEngine(t, Config{Workers: 1, RTWorkers: 2,
		CoalesceMax: 3, CoalesceWindow: 300 * time.Millisecond})
	jobs := make([]*Job, 3)
	for i := range jobs {
		seed := int64(7 + i)
		j, err := batched.Submit(cgSpec(mm, seed))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	v := waitTerminal(t, jobs[0], 30*time.Second)
	if v.State != StateDone {
		t.Fatalf("batched job ended %s: %s", v.State, v.Error)
	}
	if v.Result.BatchSize != 3 {
		t.Fatalf("batch_size = %d, want 3 (coalescing did not happen)", v.Result.BatchSize)
	}
	// Column independence makes the batched recurrence agree with the single
	// solve to rounding (dot products accumulate in a different order), so
	// the convergence iteration can shift by at most one near the threshold.
	if d := v.Result.Iterations - refView.Result.Iterations; d < -1 || d > 1 {
		t.Errorf("batched iterations = %d, single = %d (columns must be independent)",
			v.Result.Iterations, refView.Result.Iterations)
	}
	if v.Result.Residual > 1e-8 {
		t.Errorf("batched residual = %.3e", v.Result.Residual)
	}
	for _, j := range jobs[1:] {
		waitTerminal(t, j, 30*time.Second)
	}
}
