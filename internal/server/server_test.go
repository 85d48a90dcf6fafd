package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

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

func TestAllSolversAndBackends(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, RTWorkers: 2})
	var ids []string
	for _, solver := range []string{"lanczos", "lobpcg", "cg", "pcg"} {
		for _, backend := range []string{"bsp", "deepsparse", "hpx", "regent"} {
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
	if m := getMetrics(t, ts); m.Jobs.Done != 16 {
		t.Errorf("done = %d, want 16", m.Jobs.Done)
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

func TestTopologyConfigAndMetrics(t *testing.T) {
	// An EPYC-profile server records the profile in /metrics and aggregates
	// the backends' locality counters once jobs have run.
	_, ts := newTestServer(t, Config{Workers: 1, RTWorkers: 4, Topo: "epyc"})
	v, status := postJob(t, ts, mmSpec("lanczos", "deepsparse", `"k":4`))
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", status)
	}
	if v, _ = waitState(t, ts, v.ID, StateDone, 30*time.Second); v.State != StateDone {
		t.Fatalf("job ended %s: %s", v.State, v.Error)
	}
	m := getMetrics(t, ts)
	if m.Topology.Profile != "epyc(8d)" || m.Topology.Domains != 8 {
		t.Fatalf("topology = %q/%d, want epyc(8d)/8", m.Topology.Profile, m.Topology.Domains)
	}
	if m.Topology.Locality.Tasks() == 0 {
		t.Error("locality counters empty after a completed solve")
	}
	if s := m.Topology.DomainLocalShare; s < 0 || s > 1 {
		t.Errorf("domain_local_share = %v out of range", s)
	}
	// The idle-protocol counters ride along: four workers on a graph this
	// small cannot all be busy all the time.
	if l := m.Topology.Locality; l.StealFails+l.Spins == 0 {
		t.Errorf("no failed steal or spin round counted over %d tasks on 4 workers: %+v", l.Tasks(), l)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, key := range []string{`"steal_fails"`, `"spins"`, `"parks"`, `"wakes"`} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Errorf("/metrics does not export %s", key)
		}
	}

	// Unknown profile names degrade to flat rather than failing the server.
	s2 := New(Config{Workers: 1, Topo: "bogus"})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s2.Drain(ctx)
	}()
	if s2.topo.Name != "flat" {
		t.Errorf("unknown profile resolved to %s, want flat", s2.topo)
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
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.Workers != 3 {
		t.Errorf("healthz = %+v, want ok/3", body)
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
