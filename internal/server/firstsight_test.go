package server

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"sparsetask/internal/autotune"
	"sparsetask/internal/matgen"
	"sparsetask/internal/sparse"
)

// Tests for what a first-sight job does before its solve: the pruned autotune
// sweep must leave the plan — and with it every number the job computes —
// where the exhaustive sweep put it, and the job must say what each stage
// cost it.

// exhaustivePlan is the plan the engine made before its sweep pruned: the
// same evaluator with its bound taken away, so all six bins are evaluated.
// (internal/autotune holds Tune itself to a frozen copy of the old sweep.)
func exhaustivePlan(t *testing.T, coo *sparse.COO, solver string, workers int) Plan {
	t.Helper()
	sv := autotune.Lanczos
	if solver == "lobpcg" {
		sv = autotune.LOBPCG
	}
	cost := autotune.GraphEvaluator(coo, sv, workers, tuneFlopsPerNs, tuneOverheadNs).Cost
	res, err := autotune.Tune(coo.Rows, autotune.Evaluator{Cost: cost})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 6 || len(res.Pruned) != 0 {
		t.Fatalf("unbounded sweep ran %d trials and pruned %d, want 6 and 0", len(res.Trials), len(res.Pruned))
	}
	return Plan{Block: res.Block, BlockCount: res.BlockCount, Bin: res.Bin}
}

func TestColdJobPlanAndNumbersMatchExhaustiveSweep(t *testing.T) {
	matrices := map[string]*sparse.COO{
		"spdlap-1605": matgen.SPDLaplacian(1605, 3),
		"fem3d-9x8x7": matgen.FEM3D(9, 8, 7, 2, 7, 5),
	}
	for name, coo := range matrices {
		var doc strings.Builder
		if err := sparse.WriteMatrixMarket(&doc, coo); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			for _, solver := range []string{"lanczos", "lobpcg", "cg", "pcg"} {
				spec := JobSpec{Solver: solver, Backend: "deepsparse", K: 4, Seed: 9, Matrix: MatrixSpec{MM: doc.String()}}
				if solver == "lobpcg" {
					spec.Iters = 5
				}
				what := name + " " + solver
				cold := solve(t, newTestEngine(t, Config{Workers: 1, RTWorkers: workers}), spec)
				if cold.PlanSource != "autotune" || cold.MatrixSource != "built" {
					t.Errorf("%s: plan_source %q matrix_source %q, want autotune built", what, cold.PlanSource, cold.MatrixSource)
				}
				want := exhaustivePlan(t, coo, solver, workers)
				if cold.Block != want.Block || cold.BlockCount != want.BlockCount {
					t.Errorf("%s w=%d: tuned to block %d (count %d), the exhaustive sweep picks %d (%d)",
						what, workers, cold.Block, cold.BlockCount, want.Block, want.BlockCount)
				}
				// The same job with the exhaustive sweep's block forced on it.
				spec.Block = want.Block
				forced := solve(t, newTestEngine(t, Config{Workers: 1, RTWorkers: workers}), spec)
				if forced.PlanSource != "request" {
					t.Fatalf("%s: forced plan_source %q", what, forced.PlanSource)
				}
				sameNumbers(t, what, cold, forced)
			}
		}
	}
}

func TestFirstSightJobReportsTimingsAndRepeatDoesNot(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, RTWorkers: 1})
	for _, solver := range []string{"lanczos", "pcg"} {
		spec := suiteSpec(solver, 1)
		first := solve(t, e, spec)
		tm := first.Timings
		if tm == nil {
			t.Fatalf("%s: first-sight job reports no timings", solver)
		}
		if tm.PlanMS <= 0 || tm.ConvertMS <= 0 || tm.SolveMS <= 0 {
			t.Errorf("%s: timings %+v: plan, convert and solve all did work", solver, *tm)
		}
		if first.MatrixSource == "built" && tm.LoadMS <= 0 {
			t.Errorf("%s: built the matrix in %v ms", solver, tm.LoadMS)
		}
		if (solver == "pcg") != (tm.FactorMS > 0) {
			t.Errorf("%s: factor_ms = %v", solver, tm.FactorMS)
		}
		if again := solve(t, e, spec); again.Timings != nil {
			t.Errorf("%s: a job served from the caches reports timings %+v", solver, *again.Timings)
		}
	}
	// Two sweeps ran (lanczos and pcg key different plans); every one of their
	// candidates was either evaluated or pruned.
	m := e.metrics
	sweeps, trials, pruned := m.AutotuneSweeps.Load(), m.AutotuneTrials.Load(), m.AutotunePruned.Load()
	if sweeps != 2 || trials < sweeps || trials+pruned != 6*sweeps || pruned == 0 {
		t.Errorf("%d sweeps, %d trials, %d pruned: want 2 sweeps of six candidates, some pruned", sweeps, trials, pruned)
	}
}

// Only a batch's first member can have paid for a stage.
func TestCoalescedBatchTimingsOnFirstMemberOnly(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, RTWorkers: 1, CoalesceMax: 3, CoalesceWindow: 300 * time.Millisecond})
	mm := suiteAsMM(t, 1)
	var jobs []*Job
	for seed := int64(1); seed <= 3; seed++ {
		j, _, err := e.Submit(cgSpec(mm, seed))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	withTimings := 0
	for _, j := range jobs {
		v := waitTerminal(t, j, 30*time.Second)
		if v.State != StateDone {
			t.Fatalf("job %s: %s %s", j.ID, v.State, v.Error)
		}
		if v.Result.Timings != nil {
			withTimings++
			if v.Result.MatrixSource != "built" {
				t.Errorf("job %s reports timings but matrix_source %q", j.ID, v.Result.MatrixSource)
			}
		}
	}
	if withTimings != 1 {
		t.Errorf("%d of 3 jobs on one first-sight matrix report timings, want 1", withTimings)
	}
}

func TestSubmitBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// A syntactically valid spec whose inline document runs past the cap: the
	// reader must stop at the cap, not at the closing brace.
	body := io.MultiReader(
		strings.NewReader(`{"solver":"cg","backend":"bsp","matrix":{"mm":"`),
		bytes.NewReader(bytes.Repeat([]byte{'1'}, MaxJobBodyBytes)),
		strings.NewReader(`"}}`),
	)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if m := getMetrics(t, ts); m.Jobs.Submitted != 0 {
		t.Errorf("%d jobs submitted from an oversized body", m.Jobs.Submitted)
	}
	// At the cap, the spec goes through to validation like any other.
	if _, status := postJob(t, ts, mmSpec("cg", "bsp", "")); status != http.StatusAccepted {
		t.Errorf("ordinary body after the oversized one: status %d", status)
	}
}
