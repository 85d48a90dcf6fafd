// Package server implements solverd's serving layer in two parts. Engine is
// the transport-agnostic core: it admits sparse-solver jobs into a bounded
// FIFO queue, coalesces same-matrix cg/pcg jobs into multi-RHS batched
// solves, executes them on a worker pool over the exec-mode runtimes
// (internal/rt), and amortizes per-matrix work across repeat traffic through
// two LRU caches: autotuned block sizes keyed by the matrix's structural
// fingerprint, and operators — the built matrix, its tiled storage, and its
// IC(0) factors with their level analyses — keyed by the matrix's value
// identity. Server is the thin HTTP/JSON skin over it, serving /jobs,
// /metrics, and /healthz.
//
// The subsystem is the first step from the paper's offline evaluation toward
// the ROADMAP's production north star: the paper shows runtime and block
// size choice dominate performance; a serving layer can amortize that choice
// across repeat traffic instead of re-deriving it per request — and the
// batch coalescer amortizes the matrix stream itself, turning k queued
// solves into one SpMM-driven iteration. internal/route scales the same API
// across N engines with affinity routing.
package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"sparsetask/internal/matgen"
	"sparsetask/internal/sparse"
)

// State is a job's lifecycle phase.
type State string

// Job states. Terminal states are done, failed, and canceled.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// MatrixSpec names the input matrix: either a matrix from the matgen suite
// registry (scaled by preset) or an inline MatrixMarket document. Exactly
// one of Suite and MM must be set.
type MatrixSpec struct {
	// Suite is a Table 1 matrix name from the matgen registry
	// (e.g. "nlpkkt160").
	Suite string `json:"suite,omitempty"`
	// Preset scales suite matrices: tiny, small, medium. Default tiny.
	Preset string `json:"preset,omitempty"`
	// Seed drives suite-matrix generation. Default 1.
	Seed int64 `json:"seed,omitempty"`
	// MM is an inline MatrixMarket coordinate document.
	MM string `json:"mm,omitempty"`
}

// JobSpec is the POST /jobs request body.
type JobSpec struct {
	// Solver is one of lanczos, lobpcg, cg, pcg.
	Solver string `json:"solver"`
	// Backend is one of bsp, deepsparse, hpx, regent.
	Backend string     `json:"backend"`
	Matrix  MatrixSpec `json:"matrix"`
	// K is the eigenpair count (lanczos: Krylov steps, lobpcg: block size).
	// Default 6, clamped to the matrix dimension. Ignored by cg.
	K int `json:"k,omitempty"`
	// Iters > 0 runs LOBPCG for a fixed iteration count instead of
	// converging (the paper's benchmarking mode). Ignored by other solvers.
	Iters int `json:"iters,omitempty"`
	// Workers overrides the runtime worker count for this job (0 = server
	// default).
	Workers int `json:"workers,omitempty"`
	// Block forces a CSB block size in rows, bypassing the plan cache and
	// autotuner.
	Block int `json:"block,omitempty"`
	// DeadlineMS bounds the job's execution time, measured from the moment
	// a pool worker starts it. 0 means no deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Seed drives the solver's random starting vector (and the CG
	// right-hand side). Default 1.
	Seed int64 `json:"seed,omitempty"`
}

// Admission ceilings for the numeric JobSpec knobs. The spec is decoded
// straight from the request body, so every field that sizes an allocation, a
// loop, a pool, or a deadline gets an explicit upper bound here — the one
// place requests are admitted — instead of ad-hoc clamps at use sites.
const (
	maxSpecK          = 4096          // eigenpair count / LOBPCG block size
	maxSpecIters      = 1 << 20       // fixed-iteration benchmarking mode
	maxSpecWorkers    = 1024          // per-job worker override
	maxSpecBlock      = 1 << 22       // forced CSB block size in rows
	maxSpecDeadlineMS = 24 * 3600_000 // one day, in milliseconds
)

// Validate rejects malformed specs before they enter the queue.
//
//sparselint:validator
func (s *JobSpec) Validate() error {
	switch s.Solver {
	case "lanczos", "lobpcg", "cg", "pcg":
	default:
		return fmt.Errorf("solver must be lanczos, lobpcg, cg, or pcg, got %q", s.Solver)
	}
	switch s.Backend {
	case "bsp", "deepsparse", "hpx", "regent":
	default:
		return fmt.Errorf("backend must be bsp, deepsparse, hpx, or regent, got %q", s.Backend)
	}
	hasSuite, hasMM := s.Matrix.Suite != "", s.Matrix.MM != ""
	if hasSuite == hasMM {
		return fmt.Errorf("matrix needs exactly one of suite or mm")
	}
	if hasSuite {
		if _, err := matgen.SpecByName(s.Matrix.Suite); err != nil {
			return err
		}
		if p := s.Matrix.Preset; p != "" {
			if _, err := matgen.PresetByName(p); err != nil {
				return err
			}
		}
	}
	if s.K < 0 || s.Iters < 0 || s.Workers < 0 || s.Block < 0 || s.DeadlineMS < 0 {
		return fmt.Errorf("k, iters, workers, block, and deadline_ms must be non-negative")
	}
	if s.K > maxSpecK {
		return fmt.Errorf("k must be at most %d, got %d", maxSpecK, s.K)
	}
	if s.Iters > maxSpecIters {
		return fmt.Errorf("iters must be at most %d, got %d", maxSpecIters, s.Iters)
	}
	if s.Workers > maxSpecWorkers {
		return fmt.Errorf("workers must be at most %d, got %d", maxSpecWorkers, s.Workers)
	}
	if s.Block > maxSpecBlock {
		return fmt.Errorf("block must be at most %d, got %d", maxSpecBlock, s.Block)
	}
	if s.DeadlineMS > maxSpecDeadlineMS {
		return fmt.Errorf("deadline_ms must be at most %d, got %d", maxSpecDeadlineMS, s.DeadlineMS)
	}
	return nil
}

// buildMatrix realizes the spec into a COO matrix.
func (s *MatrixSpec) buildMatrix() (*sparse.COO, error) {
	if s.MM != "" {
		return sparse.ReadMatrixMarket(strings.NewReader(s.MM))
	}
	spec, err := matgen.SpecByName(s.Suite)
	if err != nil {
		return nil, err
	}
	presetName := s.Preset
	if presetName == "" {
		presetName = "tiny"
	}
	preset, err := matgen.PresetByName(presetName)
	if err != nil {
		return nil, err
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	return spec.Build(preset, seed), nil
}

// JobResult is the payload of a successfully completed job.
type JobResult struct {
	// Eigenvalues for lanczos (descending) and lobpcg (ascending); empty
	// for cg.
	Eigenvalues []float64 `json:"eigenvalues,omitempty"`
	Iterations  int       `json:"iterations"`
	// Residual is the solver's convergence metric (relative residual for cg).
	Residual  float64 `json:"residual"`
	Converged bool    `json:"converged"`

	MatrixRows int `json:"matrix_rows"`
	MatrixNNZ  int `json:"matrix_nnz"`
	// Block and BlockCount describe the CSB tiling the job executed with.
	Block      int `json:"block"`
	BlockCount int `json:"block_count"`
	// SymStorage reports whether the solve ran from symmetric (SymCSB)
	// lower-triangle storage with the symmetry-exploiting kernels.
	SymStorage bool `json:"sym_storage,omitempty"`
	// PlanSource records where the tiling came from: "request" (explicit
	// block in the spec), "cache" (plan-cache hit), "autotune" (fresh
	// six-bin sweep), or "fallback" (matrix too small to tune).
	PlanSource string `json:"plan_source"`
	// Precond names the preconditioner a pcg job actually applied: "ic0",
	// or "jacobi" when the factorization hit a non-positive pivot.
	Precond string `json:"precond,omitempty"`
	// FactorSource records where a pcg job's factorization came from:
	// "cache" (the matrix's cached operator already held factors) or
	// "computed".
	FactorSource string `json:"factor_source,omitempty"`
	// MatrixSource records where the job's operator came from: "built" (this
	// job generated or parsed the matrix and scanned it) or "cache" (an
	// earlier job, or a sibling in the same coalesced batch, already had).
	MatrixSource string `json:"matrix_source"`
	// BatchID, BatchSize, and BatchIndex identify the multi-RHS coalesced
	// batch the job executed in; set only when the dispatcher merged >= 2
	// jobs. BatchIndex is the job's column in the batched solve (the first
	// column's 0 is omitted from JSON — group by BatchID instead).
	BatchID    string `json:"batch_id,omitempty"`
	BatchSize  int    `json:"batch_size,omitempty"`
	BatchIndex int    `json:"batch_index,omitempty"`
	// Timings is set on a first-sight job — one that built its matrix, swept
	// for its plan, or factorized — and says what each stage cost it. A job
	// served from the caches reports none.
	Timings *Timings `json:"timings,omitempty"`
}

// Timings splits a first-sight job's work into its stages, in milliseconds.
// The stages run back to back, so they sum to the run time less bookkeeping —
// plus, for an inline matrix, the load, which admission ran before the queue.
type Timings struct {
	// LoadMS: operator lookup — on a miss, generating or parsing the matrix,
	// compacting it, and the CSR scan behind its stats and fingerprint. An
	// inline matrix is looked up at admission, before the job is queued.
	LoadMS float64 `json:"load_ms"`
	// PlanMS: plan lookup, or the autotune sweep.
	PlanMS float64 `json:"plan_ms"`
	// ConvertMS: tiling the matrix at the plan's block size.
	ConvertMS float64 `json:"convert_ms"`
	// FactorMS: IC(0) factorization and level analyses (pcg only).
	FactorMS float64 `json:"factor_ms"`
	// SolveMS: solver construction and iterations.
	SolveMS float64 `json:"solve_ms"`
}

// Job is one tracked solve. All mutable fields are guarded by mu.
type Job struct {
	ID   string
	Spec JobSpec
	// identity is Spec.Matrix.Identity(), computed once at submission.
	identity string
	// admitted is an inline matrix's operator as Submit built or found it,
	// and dropped once the job is terminal. Suite matrices are generated in
	// the worker and never set it.
	admitted *admission

	mu        sync.Mutex
	state     State
	err       string
	result    *JobResult
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc // set while running
}

// admission is one operator lookup — run by Submit for an inline matrix, by
// the worker for a suite one: the operator, whether this lookup built it, and
// what the lookup cost.
type admission struct {
	op     *operator
	built  bool
	loadMS float64
}

// JobView is the JSON representation served on /jobs endpoints.
type JobView struct {
	ID          string     `json:"id"`
	State       State      `json:"state"`
	Solver      string     `json:"solver"`
	Backend     string     `json:"backend"`
	Error       string     `json:"error,omitempty"`
	Result      *JobResult `json:"result,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// View snapshots the job for serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.ID,
		State:       j.state,
		Solver:      j.Spec.Solver,
		Backend:     j.Spec.Backend,
		Error:       j.err,
		Result:      j.result,
		SubmittedAt: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	return v
}

// StateNow returns the current state.
func (j *Job) StateNow() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}
