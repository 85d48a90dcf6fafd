package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"sparsetask/internal/autotune"
	"sparsetask/internal/leakcheck"
	"sparsetask/internal/rt"
)

// TestMain fails the package when a goroutine its tests started outlives them.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// diag4 is a 4x4 diagonal matrix with spectrum {1, 2, 3, 4}: small enough to
// solve instantly and with exactly known eigenvalues.
const diag4 = `%%MatrixMarket matrix coordinate real general
4 4 4
1 1 1.0
2 2 2.0
3 3 3.0
4 4 4.0
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec string) (JobView, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode job view: %v", err)
		}
	}
	return v, resp.StatusCode
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatalf("GET /jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: status %d", id, resp.StatusCode)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode job view: %v", err)
	}
	return v
}

func cancelJob(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE /jobs/%s: %v", id, err)
	}
	resp.Body.Close()
}

// postForError submits a body that should be refused, and returns the status
// and the error the response carries.
func postForError(t *testing.T, ts *httptest.Server, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var e struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, e.Error
}

// waitState polls until the job reaches want or any terminal state, recording
// every state observed along the way.
func waitState(t *testing.T, ts *httptest.Server, id string, want State, timeout time.Duration) (JobView, map[State]bool) {
	t.Helper()
	seen := make(map[State]bool)
	deadline := time.Now().Add(timeout)
	for {
		v := getJob(t, ts, id)
		seen[v.State] = true
		if v.State == want || v.State.terminal() {
			return v, seen
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s waiting for %s", id, v.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getMetrics(t *testing.T, ts *httptest.Server) MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	return m
}

func mmSpec(solver, backend string, extra string) string {
	return mmSpecFor(diag4, solver, backend, extra)
}

func mmSpecFor(mm, solver, backend string, extra string) string {
	doc, _ := json.Marshal(mm)
	s := fmt.Sprintf(`{"solver":%q,"backend":%q,"matrix":{"mm":%s}`, solver, backend, doc)
	if extra != "" {
		s += "," + extra
	}
	return s + "}"
}

// spdTridiagMM renders the n×n tridiagonal [-1 4 -1] matrix — SPD, so IC(0)
// succeeds and pcg exercises the triangular level path end to end.
func spdTridiagMM(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", n, n, 3*n-2)
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "%d %d 4.0\n", i, i)
		if i < n {
			fmt.Fprintf(&b, "%d %d -1.0\n", i, i+1)
			fmt.Fprintf(&b, "%d %d -1.0\n", i+1, i)
		}
	}
	return b.String()
}

func TestJobLifecycleEigenvalues(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, RTWorkers: 2})
	v, status := postJob(t, ts, mmSpec("lanczos", "deepsparse", `"k":4`))
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", status)
	}
	if v.State != StateQueued {
		t.Fatalf("initial state = %s, want queued", v.State)
	}
	fin, _ := waitState(t, ts, v.ID, StateDone, 30*time.Second)
	if fin.State != StateDone {
		t.Fatalf("final state = %s (err %q), want done", fin.State, fin.Error)
	}
	if fin.Result == nil {
		t.Fatal("done job has no result")
	}
	want := []float64{4, 3, 2, 1}
	if len(fin.Result.Eigenvalues) != len(want) {
		t.Fatalf("got %d eigenvalues, want %d", len(fin.Result.Eigenvalues), len(want))
	}
	for i, w := range want {
		if math.Abs(fin.Result.Eigenvalues[i]-w) > 1e-8 {
			t.Errorf("eigenvalue[%d] = %.12f, want %g", i, fin.Result.Eigenvalues[i], w)
		}
	}
	// diag4 is too small for the six-bin sweep, so the plan must be the
	// cached single-tile fallback.
	if fin.Result.PlanSource != "fallback" {
		t.Errorf("plan_source = %q, want fallback", fin.Result.PlanSource)
	}
	if fin.StartedAt == nil || fin.FinishedAt == nil {
		t.Error("done job missing started_at/finished_at")
	}

	m := getMetrics(t, ts)
	if m.Jobs.Submitted != 1 || m.Jobs.Done != 1 {
		t.Errorf("metrics submitted=%d done=%d, want 1/1", m.Jobs.Submitted, m.Jobs.Done)
	}
	if m.Latency.Solve.Count != 1 || m.Latency.Total.Count != 1 {
		t.Errorf("latency counts solve=%d total=%d, want 1/1",
			m.Latency.Solve.Count, m.Latency.Total.Count)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []string{
		`{"solver":"qr","backend":"bsp","matrix":{"mm":"x"}}`,           // bad solver
		`{"solver":"cg","backend":"tbb","matrix":{"mm":"x"}}`,           // bad backend
		`{"solver":"cg","backend":"bsp","matrix":{}}`,                   // no matrix
		`{"solver":"cg","backend":"bsp","matrix":{"suite":"nosuch"}}`,   // unknown suite
		`{"solver":"cg","backend":"bsp","matrix":{"mm":"x"},"k":-1}`,    // negative k
		`{"solver":"cg","backend":"bsp","matrix":{"mm":"x"},"bogus":1}`, // unknown field
		`{"solver":"cg","backend":"bsp","matrix":{"mm":"x"}}`,           // matrix does not parse
	}
	for _, c := range cases {
		if _, status := postJob(t, ts, c); status != http.StatusBadRequest {
			t.Errorf("spec %s: status %d, want 400", c, status)
		}
	}
	resp, err := http.Get(ts.URL + "/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestSpecCeilings walks JobSpec, nested structs included: every numeric
// field is either held to its maxSpec* ceiling by Validate or named as
// deliberately unbounded, so a field added without an admission bound fails
// here. Limits are checked through Validate only: a job at maxSpecWorkers or
// maxSpecIters would really start that many goroutines or iterations.
func TestSpecCeilings(t *testing.T) {
	ceilings := map[string]int64{
		"K":          maxSpecK,
		"Iters":      maxSpecIters,
		"Workers":    maxSpecWorkers,
		"Block":      maxSpecBlock,
		"DeadlineMS": maxSpecDeadlineMS,
	}
	unbounded := map[string]string{
		"Seed":        "picks the solver's starting vector; every value is valid",
		"Matrix.Seed": "picks the suite matrix's values; every value is valid",
	}
	base := JobSpec{Solver: "cg", Backend: "bsp", Matrix: MatrixSpec{Suite: "inline1"}}
	check := func(name string, index []int, limit int64) {
		for _, c := range []struct {
			v    int64
			pass bool
		}{{limit, true}, {limit + 1, false}, {math.MaxInt64, false}} {
			s := base
			f := reflect.ValueOf(&s).Elem().FieldByIndex(index)
			switch {
			case f.CanInt() && !f.OverflowInt(c.v):
				f.SetInt(c.v)
			case f.CanUint() && !f.OverflowUint(uint64(c.v)):
				f.SetUint(uint64(c.v))
			case f.CanFloat():
				f.SetFloat(float64(c.v))
			default:
				continue // not representable in the field's type
			}
			if err := s.Validate(); (err == nil) != c.pass {
				t.Errorf("%s = %d: Validate() = %v, want accepted %v", name, c.v, err, c.pass)
			}
		}
	}
	seen := map[string]bool{}
	var walk func(typ reflect.Type, prefix string, index []int)
	walk = func(typ reflect.Type, prefix string, index []int) {
		for i := range typ.NumField() {
			f := typ.Field(i)
			name, idx := prefix+f.Name, append(slices.Clone(index), i)
			switch k := f.Type.Kind(); {
			case k == reflect.Struct:
				walk(f.Type, name+".", idx)
				continue
			case k < reflect.Int || k > reflect.Float64:
				continue // not a number
			}
			seen[name] = true
			limit, bounded := ceilings[name]
			_, exempt := unbounded[name]
			switch {
			case bounded && exempt:
				t.Errorf("%s is both bounded and unbounded", name)
			case bounded:
				check(name, idx, limit)
			case !exempt:
				t.Errorf("%s: numeric spec field has no admission ceiling", name)
			}
		}
	}
	walk(reflect.TypeFor[JobSpec](), "", nil)
	for name := range ceilings {
		if !seen[name] {
			t.Errorf("ceiling for %s, which is no numeric JobSpec field", name)
		}
	}
	for name := range unbounded {
		if !seen[name] {
			t.Errorf("%s is exempt but no numeric JobSpec field", name)
		}
	}
}

// Nothing but white space may follow the spec: a second object would be
// dropped unvalidated, and the router forwards the body as the client sent it.
func TestSubmitRefusesTrailingData(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := `{"solver":"cg","backend":"bsp","matrix":{"suite":"inline1"}}`
	for _, body := range []string{spec + ` trailing garbage`, spec + `{"solver":"qr"}`, spec + "\n}"} {
		if status, msg := postForError(t, ts, body); status != http.StatusBadRequest || !strings.HasPrefix(msg, "bad job spec: trailing data ") {
			t.Errorf("%q: status %d, error %q; want 400 naming the trailing data", body, status, msg)
		}
	}
	if m := getMetrics(t, ts); m.Jobs.Submitted != 0 {
		t.Errorf("%d jobs submitted from bodies with trailing data", m.Jobs.Submitted)
	}
	if _, status := postJob(t, ts, spec+" \r\n\t\n"); status != http.StatusAccepted {
		t.Errorf("spec followed by white space: status %d, want 202", status)
	}
}

// blockerSpec is a job that runs for a long time: LOBPCG in fixed-iteration
// benchmarking mode never exits on convergence, so it keeps the single pool
// worker busy until cancelled.
func blockerSpec(extra string) string {
	e := `"iters":500000`
	if extra != "" {
		e += "," + extra
	}
	return mmSpec("lobpcg", "deepsparse", e)
}

func TestQueueFullRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 1, RTWorkers: 1})

	blocker, status := postJob(t, ts, blockerSpec(""))
	if status != http.StatusAccepted {
		t.Fatalf("blocker status = %d", status)
	}
	if v, _ := waitState(t, ts, blocker.ID, StateRunning, 10*time.Second); v.State != StateRunning {
		t.Fatalf("blocker reached %s, want running", v.State)
	}

	// The dispatcher takes one job off the queue and holds it until the pool
	// has a free worker; the next one fills the queue; the one after is
	// refused.
	held, status := postJob(t, ts, mmSpec("cg", "bsp", ""))
	if status != http.StatusAccepted {
		t.Fatalf("second job status = %d, want 202", status)
	}
	for deadline := time.Now().Add(10 * time.Second); getMetrics(t, ts).Queue.Depth != 0; {
		if time.Now().After(deadline) {
			t.Fatal("dispatcher never took the second job off the queue")
		}
		time.Sleep(2 * time.Millisecond)
	}
	queued, status := postJob(t, ts, mmSpec("cg", "bsp", ""))
	if status != http.StatusAccepted {
		t.Fatalf("third job status = %d, want 202", status)
	}
	if _, status := postJob(t, ts, mmSpec("cg", "bsp", "")); status != http.StatusTooManyRequests {
		t.Fatalf("fourth job status = %d, want 429", status)
	}

	m := getMetrics(t, ts)
	if m.Jobs.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", m.Jobs.Rejected)
	}
	if m.Queue.Depth != 1 || m.Queue.Capacity != 1 {
		t.Errorf("queue depth/cap = %d/%d, want 1/1", m.Queue.Depth, m.Queue.Capacity)
	}
	if m.Jobs.Running != 1 || m.Jobs.Queued != 2 {
		t.Errorf("running/queued = %d/%d, want 1/2", m.Jobs.Running, m.Jobs.Queued)
	}

	// Cancel the waiting jobs first (exercises cancel-while-queued, in the
	// queue and in the dispatcher's hand), then the running blocker (exercises
	// mid-solve context cancellation).
	for _, id := range []string{queued.ID, held.ID} {
		cancelJob(t, ts, id)
		if v := getJob(t, ts, id); v.State != StateCanceled {
			t.Errorf("job %s state after cancel = %s, want canceled", id, v.State)
		}
	}
	cancelJob(t, ts, blocker.ID)
	if v, _ := waitState(t, ts, blocker.ID, StateCanceled, 10*time.Second); v.State != StateCanceled {
		t.Errorf("blocker state after cancel = %s, want canceled", v.State)
	}

	m = getMetrics(t, ts)
	if m.Jobs.Canceled != 3 {
		t.Errorf("canceled = %d, want 3", m.Jobs.Canceled)
	}
	if m.Jobs.Submitted != 3 {
		t.Errorf("submitted = %d, want 3", m.Jobs.Submitted)
	}
}

// Canceling the queued jobs behind a busy pool frees their slots at once:
// with every queued job canceled, QueueSize new jobs are admitted while the
// blocker still runs and the dispatcher still holds the job it took.
func TestCanceledQueuedJobsFreeTheQueue(t *testing.T) {
	const queueSize = 2
	e := newTestEngine(t, Config{Workers: 1, QueueSize: queueSize, RTWorkers: 1})
	blocker := JobSpec{Solver: "lobpcg", Backend: "deepsparse", Iters: 500000, Matrix: MatrixSpec{MM: diag4}}
	running, _, err := e.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); running.StateNow() != StateRunning; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("blocker stuck in %s", running.StateNow())
		}
	}
	// Fill the queue: one job in the dispatcher's hand, queueSize queued.
	var waiting []*Job
	for {
		j, _, err := e.Submit(blocker)
		if errors.Is(err, ErrQueueFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(waiting) > queueSize {
			t.Fatalf("%d jobs admitted behind one running job and a queue of %d", len(waiting)+1, queueSize)
		}
		waiting = append(waiting, j)
	}
	for _, j := range waiting {
		e.Cancel(j)
	}
	for i := 0; i < queueSize; i++ {
		j, _, err := e.Submit(blocker)
		if err != nil {
			t.Fatalf("submit %d after canceling every queued job: %v", i+1, err)
		}
		waiting = append(waiting, j)
	}
	if running.StateNow() != StateRunning {
		t.Errorf("blocker is %s, want still running", running.StateNow())
	}
	for _, j := range append(waiting, running) {
		e.Cancel(j)
		waitTerminal(t, j, 30*time.Second)
	}
}

func TestDeadlineCancelsRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, RTWorkers: 1})
	v, status := postJob(t, ts, blockerSpec(`"deadline_ms":300`))
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	fin, seen := waitState(t, ts, v.ID, StateCanceled, 30*time.Second)
	if fin.State != StateCanceled {
		t.Fatalf("final state = %s (err %q), want canceled", fin.State, fin.Error)
	}
	if !seen[StateRunning] {
		t.Error("never observed the job in running state before the deadline hit")
	}
	if !strings.Contains(fin.Error, "deadline") {
		t.Errorf("error = %q, want mention of deadline", fin.Error)
	}
	if m := getMetrics(t, ts); m.Jobs.Canceled != 1 {
		t.Errorf("canceled = %d, want 1", m.Jobs.Canceled)
	}
}

func TestPlanCacheHitSkipsAutotune(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, RTWorkers: 2})
	// inline1 at preset tiny is 768 rows — large enough for the six-bin
	// sweep to find a feasible block count.
	spec := `{"solver":"lanczos","backend":"bsp","matrix":{"suite":"inline1","preset":"tiny"},"k":4}`

	first, status := postJob(t, ts, spec)
	if status != http.StatusAccepted {
		t.Fatalf("first submit status = %d", status)
	}
	v1, _ := waitState(t, ts, first.ID, StateDone, 60*time.Second)
	if v1.State != StateDone {
		t.Fatalf("first job state = %s (err %q)", v1.State, v1.Error)
	}
	if v1.Result.PlanSource != "autotune" {
		t.Fatalf("first plan_source = %q, want autotune", v1.Result.PlanSource)
	}

	second, status := postJob(t, ts, spec)
	if status != http.StatusAccepted {
		t.Fatalf("second submit status = %d", status)
	}
	v2, _ := waitState(t, ts, second.ID, StateDone, 60*time.Second)
	if v2.State != StateDone {
		t.Fatalf("second job state = %s (err %q)", v2.State, v2.Error)
	}
	if v2.Result.PlanSource != "cache" {
		t.Errorf("second plan_source = %q, want cache", v2.Result.PlanSource)
	}
	if v2.Result.Block != v1.Result.Block || v2.Result.BlockCount != v1.Result.BlockCount {
		t.Errorf("cached plan %d/%d differs from tuned plan %d/%d",
			v2.Result.Block, v2.Result.BlockCount, v1.Result.Block, v1.Result.BlockCount)
	}

	m := getMetrics(t, ts)
	if m.PlanCache.AutotuneSweeps != 1 {
		t.Errorf("autotune_sweeps = %d, want 1 (second submission must reuse the plan)",
			m.PlanCache.AutotuneSweeps)
	}
	if m.PlanCache.Hits < 1 || m.PlanCache.Misses < 1 {
		t.Errorf("plan cache hits/misses = %d/%d, want >=1 each",
			m.PlanCache.Hits, m.PlanCache.Misses)
	}
	if m.PlanCache.Size != 1 {
		t.Errorf("plan cache size = %d, want 1", m.PlanCache.Size)
	}
}

// TestPCGFactorCacheReuse is the serving-layer acceptance test for the
// preconditioner cache: the first pcg job against a matrix factorizes and
// analyses levels; a repeat job on the same matrix reuses both; a repeat at a
// different tiling reuses the factors but analyses the new block size once.
func TestPCGFactorCacheReuse(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, RTWorkers: 2})
	mm := spdTridiagMM(24)
	runJob := func(extra string) JobView {
		t.Helper()
		v, status := postJob(t, ts, mmSpecFor(mm, "pcg", "deepsparse", extra))
		if status != http.StatusAccepted {
			t.Fatalf("submit status = %d, want 202", status)
		}
		fin, _ := waitState(t, ts, v.ID, StateDone, 30*time.Second)
		if fin.State != StateDone {
			t.Fatalf("job state = %s (err %q), want done", fin.State, fin.Error)
		}
		return fin
	}

	first := runJob(`"block":8`)
	if first.Result.Precond != "ic0" {
		t.Fatalf("precond = %q, want ic0 (SPD matrix must factorize)", first.Result.Precond)
	}
	if first.Result.FactorSource != "computed" {
		t.Fatalf("first factor_source = %q, want computed", first.Result.FactorSource)
	}
	if !first.Result.Converged || first.Result.Iterations < 1 {
		t.Fatalf("first job did not converge: %+v", first.Result)
	}

	if first.Result.MatrixSource != "built" {
		t.Errorf("first matrix_source = %q, want built", first.Result.MatrixSource)
	}

	second := runJob(`"block":8`)
	if second.Result.FactorSource != "cache" {
		t.Errorf("repeat factor_source = %q, want cache", second.Result.FactorSource)
	}
	if second.Result.MatrixSource != "cache" {
		t.Errorf("repeat matrix_source = %q, want cache", second.Result.MatrixSource)
	}
	if second.Result.Iterations != first.Result.Iterations {
		t.Errorf("cached factors changed convergence: %d vs %d iterations",
			second.Result.Iterations, first.Result.Iterations)
	}
	m := getMetrics(t, ts)
	if m.FactorCache.Factorizations != 1 {
		t.Errorf("factorizations = %d, want 1 (repeat job must reuse the factors)",
			m.FactorCache.Factorizations)
	}
	if m.FactorCache.LevelAnalyses != 1 {
		t.Errorf("level_analyses = %d, want 1 (repeat job must reuse the levels)",
			m.FactorCache.LevelAnalyses)
	}
	if m.FactorCache.Hits != 1 || m.FactorCache.Misses != 1 || m.FactorCache.Size != 1 {
		t.Errorf("factor cache hits/misses/size = %d/%d/%d, want 1/1/1",
			m.FactorCache.Hits, m.FactorCache.Misses, m.FactorCache.Size)
	}

	if oc := m.OperatorCache; oc.Builds != 1 || oc.Hits != 1 || oc.Misses != 1 || oc.Size != 1 ||
		oc.Bytes <= 0 || oc.Bytes > oc.CapacityBytes {
		t.Errorf("operator cache = %+v, want 1 build, 1 hit, 1 miss, 1 entry within budget", oc)
	}

	// A different tiling shares the factors but needs its own level analysis.
	third := runJob(`"block":4`)
	if third.Result.FactorSource != "cache" {
		t.Errorf("retiled factor_source = %q, want cache", third.Result.FactorSource)
	}
	m = getMetrics(t, ts)
	if m.FactorCache.Factorizations != 1 {
		t.Errorf("factorizations after retile = %d, want still 1", m.FactorCache.Factorizations)
	}
	if m.FactorCache.LevelAnalyses != 2 {
		t.Errorf("level_analyses after retile = %d, want 2", m.FactorCache.LevelAnalyses)
	}
}

// A forced block is bounded by the tiles per dimension it makes, not only by
// its size: block 1 on a 2048-row matrix would tile it 2048 ways, and at
// 65 536 rows the same request allocates a 17 GB tile index before anything
// could fail. The job fails, naming the limit, before any tiling is built.
func TestForcedBlockTileLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, RTWorkers: 1})
	v, status := postJob(t, ts, mmSpecFor(spdTridiagMM(2048), "lanczos", "deepsparse", `"k":4,"block":1`))
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", status)
	}
	fin, _ := waitState(t, ts, v.ID, StateFailed, 60*time.Second)
	if fin.State != StateFailed {
		t.Fatalf("block 1 on 2048 rows: state %s, want failed", fin.State)
	}
	if want := fmt.Sprintf("at most %d", autotune.Bins[len(autotune.Bins)-1].Hi); !strings.Contains(fin.Error, want) {
		t.Fatalf("error %q does not name the limit (%q)", fin.Error, want)
	}
}

func TestAllSolversAndBackends(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, RTWorkers: 2})
	var ids []string
	for _, solver := range []string{"lanczos", "lobpcg", "cg", "pcg"} {
		for _, backend := range rt.Backends() {
			extra := ""
			if solver == "lobpcg" {
				extra = `"k":1,"iters":10`
			}
			v, status := postJob(t, ts, mmSpec(solver, backend, extra))
			if status != http.StatusAccepted {
				t.Fatalf("%s/%s: status %d", solver, backend, status)
			}
			ids = append(ids, v.ID)
		}
	}
	for _, id := range ids {
		if v, _ := waitState(t, ts, id, StateDone, 60*time.Second); v.State != StateDone {
			t.Errorf("job %s (%s/%s): state %s, err %q", id, v.Solver, v.Backend, v.State, v.Error)
		}
	}
	if m, want := getMetrics(t, ts), int64(len(ids)); m.Jobs.Done != want {
		t.Errorf("done = %d, want %d", m.Jobs.Done, want)
	}
}

// TestBackendListIsTheAdmissionList: every backend rt lists is admitted and
// builds under its own name; a name it does not list is refused by both.
func TestBackendListIsTheAdmissionList(t *testing.T) {
	spec := func(backend string) JobSpec {
		return JobSpec{Solver: "cg", Backend: backend, Matrix: MatrixSpec{Suite: "inline1"}}
	}
	for _, name := range rt.Backends() {
		if s := spec(name); s.Validate() != nil {
			t.Errorf("%s: refused at admission: %v", name, s.Validate())
		}
		if r, err := rt.ByName(name, rt.Options{Workers: 1}); err != nil || r.Name() != name {
			t.Errorf("%s: ByName built %v, %v", name, r, err)
		}
	}
	if s := spec("serial"); s.Validate() == nil {
		t.Error("unknown backend admitted")
	}
	if _, err := rt.ByName("serial", rt.Options{}); err == nil {
		t.Error("ByName built an unknown backend")
	}
}

func TestDrainRefusesNewJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	v, _ := postJob(t, ts, mmSpec("cg", "hpx", ""))
	if fin, _ := waitState(t, ts, v.ID, StateDone, 30*time.Second); fin.State != StateDone {
		t.Fatalf("warmup job state = %s", fin.State)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if _, status := postJob(t, ts, mmSpec("cg", "hpx", "")); status != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", status)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: status %d, want 503", resp.StatusCode)
	}
}

// TestDrainDeadlineCancelsRunningJob: when Drain's ctx expires while a job
// is running, Drain cancels the job and returns ctx's error within a bound,
// once the pool has exited.
func TestDrainDeadlineCancelsRunningJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, RTWorkers: 1})
	v, status := postJob(t, ts, blockerSpec(""))
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d", status)
	}
	if v, _ := waitState(t, ts, v.ID, StateRunning, 10*time.Second); v.State != StateRunning {
		t.Fatalf("blocker reached %s, want running", v.State)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- s.Drain(ctx) }()
	select {
	case err := <-errc:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("drain = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(time.Second):
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		cancelJob(t, ts, v.ID) // unblock the pool, so the cleanup's drain returns
		t.Fatalf("drain still blocked 1 s after its 100 ms deadline:\n%s", buf)
	}
	if fin := getJob(t, ts, v.ID); fin.State != StateCanceled {
		t.Errorf("blocker state after drain = %s (err %q), want canceled", fin.State, fin.Error)
	}
}

func TestSchedulerMetrics(t *testing.T) {
	// /metrics aggregates the stealing backends' executor counters once jobs
	// have run.
	_, ts := newTestServer(t, Config{Workers: 1, RTWorkers: 4})
	v, status := postJob(t, ts, mmSpec("lanczos", "deepsparse", `"k":4`))
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", status)
	}
	if v, _ = waitState(t, ts, v.ID, StateDone, 30*time.Second); v.State != StateDone {
		t.Fatalf("job ended %s: %s", v.State, v.Error)
	}
	m := getMetrics(t, ts)
	if m.Scheduler.Tasks() == 0 {
		t.Error("scheduler counters empty after a completed solve")
	}
	// The idle-protocol counters ride along: four workers on a graph this
	// small cannot all be busy all the time.
	if l := m.Scheduler; l.StealFails+l.Spins == 0 {
		t.Errorf("no failed steal or spin round counted over %d tasks on 4 workers: %+v", l.Tasks(), l)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, key := range []string{`"scheduler"`, `"steal_fails"`, `"spins"`, `"parks"`, `"wakes"`} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Errorf("/metrics does not export %s", key)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	var body struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
		Queue   struct {
			Depth    int `json:"depth"`
			Capacity int `json:"capacity"`
		} `json:"queue"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	// The router's spill heuristic reads the queue's occupancy from here.
	if body.Status != "ok" || body.Workers != 3 || body.Queue.Depth != 0 || body.Queue.Capacity != 64 {
		t.Errorf("healthz = %+v, want ok/3 and an empty queue of the default 64", body)
	}
}

func TestListJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var want []string
	for i := 0; i < 3; i++ {
		v, _ := postJob(t, ts, mmSpec("cg", "bsp", ""))
		want = append(want, v.ID)
	}
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var views []JobView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(views))
	}
	for i, v := range views {
		if v.ID != want[i] {
			t.Errorf("list[%d] = %s, want %s (submission order)", i, v.ID, want[i])
		}
	}
}

// TestRetiresOldestTerminalJobs: past maxTrackedJobs, Submit forgets the
// oldest terminal jobs, stopping at the first one still live, and a
// forgotten ID answers 404.
func TestRetiresOldestTerminalJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: maxTrackedJobs + 8, RTWorkers: 1})
	blocker, status := postJob(t, ts, blockerSpec(""))
	if status != http.StatusAccepted {
		t.Fatalf("blocker status = %d", status)
	}
	if v, _ := waitState(t, ts, blocker.ID, StateRunning, 10*time.Second); v.State != StateRunning {
		t.Fatalf("blocker reached %s, want running", v.State)
	}
	// The blocker holds the one pool worker, so each of these is still
	// queued when it is cancelled, and terminal from then on.
	spec := JobSpec{Solver: "cg", Backend: "bsp", Matrix: MatrixSpec{Suite: "inline1", Preset: "tiny"}}
	submitCanceled := func() string {
		t.Helper()
		j, _, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		s.Cancel(j)
		return j.ID
	}
	var ids []string
	for i := 0; i < maxTrackedJobs; i++ {
		ids = append(ids, submitCanceled())
	}
	if n := len(s.Views()); n != maxTrackedJobs+1 {
		t.Fatalf("%d jobs tracked behind a running one, want all %d", n, maxTrackedJobs+1)
	}

	cancelJob(t, ts, blocker.ID)
	if v, _ := waitState(t, ts, blocker.ID, StateCanceled, 10*time.Second); v.State != StateCanceled {
		t.Fatalf("blocker state after cancel = %s, want canceled", v.State)
	}
	ids = append(ids, submitCanceled())
	if views := s.Views(); len(views) != maxTrackedJobs || views[0].ID != ids[1] {
		t.Fatalf("%d jobs tracked from %s, want %d from %s", len(views), views[0].ID, maxTrackedJobs, ids[1])
	}
	for _, id := range []string{blocker.ID, ids[0]} {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("retired job %s: status %d, want 404", id, resp.StatusCode)
		}
	}
	if v := getJob(t, ts, ids[1]); v.State != StateCanceled {
		t.Errorf("job %s is %s, want canceled", ids[1], v.State)
	}
}

// TestDefaultCacheCapacities: the caches run at fixed capacities, which
// /metrics reports.
func TestDefaultCacheCapacities(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	m := getMetrics(t, ts)
	if m.PlanCache.Capacity != 128 {
		t.Errorf("plan_cache.capacity = %d, want 128", m.PlanCache.Capacity)
	}
	if m.OperatorCache.CapacityBytes != 268435456 {
		t.Errorf("operator_cache.capacity_bytes = %d, want 268435456", m.OperatorCache.CapacityBytes)
	}
}

// --------------------------------------------------------------- unit tests

func TestPlanCacheLRU(t *testing.T) {
	c := NewPlanCache(2)
	k := func(i int) PlanKey { return PlanKey{Fingerprint: uint64(i), Solver: "cg", Backend: "bsp", Workers: 2} }
	c.Put(k(1), Plan{Block: 10})
	c.Put(k(2), Plan{Block: 20})
	if p, ok := c.Get(k(1)); !ok || p.Block != 10 {
		t.Fatalf("Get(1) = %+v, %v", p, ok)
	}
	c.Put(k(3), Plan{Block: 30}) // evicts 2 (1 was refreshed by the Get)
	if _, ok := c.Get(k(2)); ok {
		t.Error("key 2 survived eviction; LRU order is wrong")
	}
	if _, ok := c.Get(k(1)); !ok {
		t.Error("key 1 evicted despite being most recently used")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
	hits, misses, evictions := c.Stats()
	if hits != 2 || misses != 1 || evictions != 1 {
		t.Errorf("stats = %d/%d/%d, want 2/1/1", hits, misses, evictions)
	}
	c.Put(k(1), Plan{Block: 11}) // refresh in place
	if p, _ := c.Get(k(1)); p.Block != 11 {
		t.Errorf("refreshed plan block = %d, want 11", p.Block)
	}
}

// TestLRULoad: a miss builds and caches, a hit does not build, and a failed
// build caches nothing and counts no miss.
func TestLRULoad(t *testing.T) {
	c := NewLRU[string, int](2)
	builds := 0
	build := func(v int, err error) func() (int, error) {
		return func() (int, error) { builds++; return v, err }
	}
	if _, err := c.Load("a", build(0, errors.New("boom"))); err == nil {
		t.Fatal("failed build returned no error")
	}
	if v, err := c.Load("a", build(7, nil)); err != nil || v != 7 {
		t.Fatalf("Load(a) = %d, %v; want 7", v, err)
	}
	if v, err := c.Load("a", build(8, nil)); err != nil || v != 7 {
		t.Fatalf("cached Load(a) = %d, %v; want 7", v, err)
	}
	hits, misses, _ := c.Stats()
	if builds != 2 || hits != 1 || misses != 1 || c.Len() != 1 {
		t.Errorf("builds/hits/misses/len = %d/%d/%d/%d, want 2/1/1/1", builds, hits, misses, c.Len())
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.P50MS != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	for i := 0; i < 100; i++ {
		h.Observe(1 * time.Millisecond)
	}
	h.Observe(-time.Second) // clamps to 0, must not panic or corrupt
	h.Observe(10 * time.Hour)
	s := h.Snapshot()
	if s.Count != 102 {
		t.Fatalf("count = %d, want 102", s.Count)
	}
	// 1ms lands in the [1024, 2048) µs bucket; geometric midpoint ≈ 1.45 ms.
	if s.P50MS < 0.5 || s.P50MS > 3 {
		t.Errorf("p50 = %.3f ms, want ≈1.45 ms", s.P50MS)
	}
	if s.P99MS < s.P50MS {
		t.Errorf("p99 %.3f < p50 %.3f", s.P99MS, s.P50MS)
	}
	if s.SumMS < 100 {
		t.Errorf("sum = %.3f ms, want >= 100 ms", s.SumMS)
	}
}

func TestJobSpecJSONRoundTrip(t *testing.T) {
	in := JobSpec{Solver: "lanczos", Backend: "hpx",
		Matrix: MatrixSpec{Suite: "inline1", Preset: "tiny"}, K: 4, DeadlineMS: 500}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	var out JobSpec
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip changed spec: %+v vs %+v", out, in)
	}
}
