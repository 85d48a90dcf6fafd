package route

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sparsetask/internal/leakcheck"
	"sparsetask/internal/sched"
	"sparsetask/internal/server"
	"sparsetask/internal/sparse"
)

// TestMain fails the package when a goroutine its tests started outlives them.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// tridiagMM renders an SPD tridiagonal [-1 4 -1] MatrixMarket document; the
// dimension n changes the structure, so different n produce different
// fingerprints.
func tridiagMM(n int) string {
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

func cgSpec(mm string, seed int64) server.JobSpec {
	return server.JobSpec{
		Solver:  "cg",
		Backend: "bsp",
		Matrix:  server.MatrixSpec{MM: mm},
		Seed:    seed,
	}
}

// inlineKey is the placement key of an inline document: its header's.
func inlineKey(t *testing.T, mm string) uint64 {
	t.Helper()
	h, err := sparse.ReadMatrixMarketHeader(strings.NewReader(mm))
	if err != nil {
		t.Fatalf("ReadMatrixMarketHeader: %v", err)
	}
	return headerKey(h)
}

func TestRankDeterministicAndStableUnderRemoval(t *testing.T) {
	names := []string{"alpha", "bravo", "charlie", "delta"}
	picked := map[string]bool{}
	for fp := uint64(0); fp < 200; fp++ {
		a := Rank(names, fp)
		b := Rank(names, fp)
		if len(a) != len(names) {
			t.Fatalf("Rank dropped names: %v", a)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("fp %d: Rank not deterministic: %v vs %v", fp, a, b)
			}
		}
		picked[a[0]] = true

		// Removing a shard must remap ONLY the fingerprints that ranked it
		// first; everything else keeps its placement.
		without := []string{"alpha", "bravo", "delta"}
		c := Rank(without, fp)
		if a[0] != "charlie" && c[0] != a[0] {
			t.Fatalf("fp %d: removing charlie remapped %s -> %s", fp, a[0], c[0])
		}
		if a[0] == "charlie" && c[0] != a[1] {
			t.Fatalf("fp %d: charlie's traffic should fall to second choice %s, got %s", fp, a[1], c[0])
		}
	}
	if len(picked) != len(names) {
		t.Fatalf("200 fingerprints only ever picked %d/%d shards — hash badly skewed", len(picked), len(names))
	}
}

// fakeShard is a minimal solverd stand-in with scriptable queue depth and
// submit status, for deterministic spill and backpressure tests.
type fakeShard struct {
	mu       sync.Mutex
	submits  int
	lastBody []byte // the most recent POST /jobs body, as received
	depth    int
	capacity int
	status   int
	// stall makes POST /jobs answer nothing until its caller gives up.
	stall bool
	srv   *httptest.Server
}

func newFakeShard(t *testing.T) *fakeShard {
	t.Helper()
	f := &fakeShard{capacity: 16, status: http.StatusAccepted}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		d, c := f.depth, f.capacity
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","workers":2,"queue":{"depth":%d,"capacity":%d}}`, d, c)
	})
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("fake shard: read body: %v", err)
		}
		f.mu.Lock()
		f.lastBody = body
		f.submits++
		n, st, stall := f.submits, f.status, f.stall
		f.mu.Unlock()
		if stall {
			<-r.Context().Done()
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if st != http.StatusAccepted {
			w.WriteHeader(st)
			fmt.Fprint(w, `{"error":"queue full (16 jobs)"}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"job-%d","state":"queued","solver":"cg","backend":"bsp","submitted_at":"2026-01-01T00:00:00Z"}`, n)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeShard) set(depth, status int) {
	f.mu.Lock()
	f.depth = depth
	f.status = status
	f.mu.Unlock()
}

func (f *fakeShard) submitted() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.submits
}

func (f *fakeShard) received() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastBody
}

func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		// Keep the background probers quiet; tests drive ProbeNow directly.
		cfg.ProbeInterval = time.Hour
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("route.New: %v", err)
	}
	t.Cleanup(r.Close)
	r.ProbeNow(context.Background())
	return r
}

func postSpec(t *testing.T, ts *httptest.Server, spec server.JobSpec) (server.JobView, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var v server.JobView
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode job view: %v", err)
		}
	}
	return v, resp.StatusCode
}

func shardOf(t *testing.T, v server.JobView) string {
	t.Helper()
	name, _, ok := strings.Cut(v.ID, ":")
	if !ok {
		t.Fatalf("job id %q is not shard-qualified", v.ID)
	}
	return name
}

func TestRoutingDeterministicAcrossRestarts(t *testing.T) {
	a, b := newFakeShard(t), newFakeShard(t)
	cfg := Config{Shards: []Shard{{Name: "s0", URL: a.srv.URL}, {Name: "s1", URL: b.srv.URL}}}

	suite := server.MatrixSpec{Suite: "inline1", Preset: "tiny"}
	suiteFP, err := server.SpecFingerprint(suite)
	if err != nil {
		t.Fatalf("SpecFingerprint: %v", err)
	}
	mm := tridiagMM(24)
	for _, c := range []struct {
		what   string
		matrix server.MatrixSpec
		key    uint64
	}{
		{"inline", server.MatrixSpec{MM: mm}, inlineKey(t, mm)},
		{"suite", suite, suiteFP},
	} {
		spec := func(seed int64) server.JobSpec {
			return server.JobSpec{Solver: "cg", Backend: "bsp", Matrix: c.matrix, Seed: seed}
		}
		r1 := newTestRouter(t, cfg)
		ts1 := httptest.NewServer(r1.Handler())
		want := Rank(r1.names, c.key)[0]
		for i := 0; i < 4; i++ {
			v, status := postSpec(t, ts1, spec(int64(i+1)))
			if status != http.StatusAccepted {
				t.Fatalf("%s submit %d: status %d", c.what, i, status)
			}
			if got := shardOf(t, v); got != want {
				t.Fatalf("%s submit %d landed on %s, rendezvous says %s", c.what, i, got, want)
			}
		}
		ts1.Close()

		// A fresh router over the same fleet — a restart — must agree without
		// any shared state.
		r2 := newTestRouter(t, cfg)
		ts2 := httptest.NewServer(r2.Handler())
		v, status := postSpec(t, ts2, spec(99))
		ts2.Close()
		if status != http.StatusAccepted {
			t.Fatalf("%s restart submit: status %d", c.what, status)
		}
		if got := shardOf(t, v); got != want {
			t.Fatalf("restarted router placed the %s matrix on %s, original used %s", c.what, got, want)
		}
	}
}

func TestSpillToSecondChoiceWhenPrimaryDeep(t *testing.T) {
	a, b := newFakeShard(t), newFakeShard(t)
	cfg := Config{Shards: []Shard{{Name: "s0", URL: a.srv.URL}, {Name: "s1", URL: b.srv.URL}}}
	r := newTestRouter(t, cfg)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	mm := tridiagMM(16)
	primary := Rank(r.names, inlineKey(t, mm))[0]
	shards := map[string]*fakeShard{"s0": a, "s1": b}
	second := "s0"
	if primary == "s0" {
		second = "s1"
	}

	// Below the spill point: affinity wins, at no load and just under an
	// occupancy of 0.75.
	for _, depth := range []int{0, 11} {
		shards[primary].set(depth, http.StatusAccepted)
		r.ProbeNow(context.Background())
		v, status := postSpec(t, ts, cgSpec(mm, 1))
		if status != http.StatusAccepted || shardOf(t, v) != primary {
			t.Fatalf("primary at %d/16: status %d shard %s, want 202 on %s", depth, status, shardOf(t, v), primary)
		}
	}

	// Primary at 12/16 = 0.75 occupancy, runner-up empty: the job must spill.
	shards[primary].set(12, http.StatusAccepted)
	r.ProbeNow(context.Background())
	v, status := postSpec(t, ts, cgSpec(mm, 2))
	if status != http.StatusAccepted {
		t.Fatalf("spill submit: status %d", status)
	}
	if got := shardOf(t, v); got != second {
		t.Fatalf("deep primary: job landed on %s, want spill to %s", got, second)
	}
	if r.spilled.Load() != 1 {
		t.Fatalf("spilled counter = %d, want 1", r.spilled.Load())
	}

	// Both equally saturated: no point bouncing — stay with affinity.
	shards[primary].set(15, http.StatusAccepted)
	shards[second].set(15, http.StatusAccepted)
	r.ProbeNow(context.Background())
	v, status = postSpec(t, ts, cgSpec(mm, 3))
	if status != http.StatusAccepted || shardOf(t, v) != primary {
		t.Fatalf("uniform saturation: status %d shard %s, want 202 on %s", status, shardOf(t, v), primary)
	}
}

// TestClientGiveUpLeavesShardsHealthy: a client that times out while both
// shards sit on its submission cancels the router's proxy calls. That error
// is the client's, not the shards': neither may be marked down, or every
// later submission is refused until the next probe.
func TestClientGiveUpLeavesShardsHealthy(t *testing.T) {
	a, b := newFakeShard(t), newFakeShard(t)
	a.stall, b.stall = true, true
	r := newTestRouter(t, Config{Shards: []Shard{{Name: "s0", URL: a.srv.URL}, {Name: "s1", URL: b.srv.URL}}})
	ts := httptest.NewServer(r.Handler())

	body, err := json.Marshal(cgSpec(tridiagMM(16), 1))
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 200 * time.Millisecond}
	resp, err := client.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err == nil {
		resp.Body.Close()
		t.Fatalf("stalled shards answered %d", resp.StatusCode)
	}
	ts.Close() // waits for the router's handler to return

	for _, s := range r.shards {
		if st := s.status(); !st.Healthy {
			t.Errorf("shard %s marked down by the client's cancellation: %+v", s.name, st)
		}
	}
	if n, _ := r.candidates(0); len(n) != 2 {
		t.Errorf("%d of 2 shards placeable after the client gave up", len(n))
	}
	if r.unrouteable.Load() != 0 || r.rejected.Load() != 0 {
		t.Errorf("the client's cancellation was counted: unrouteable %d, rejected %d", r.unrouteable.Load(), r.rejected.Load())
	}
}

func TestBackpressureRetryThen429(t *testing.T) {
	a, b := newFakeShard(t), newFakeShard(t)
	cfg := Config{Shards: []Shard{{Name: "s0", URL: a.srv.URL}, {Name: "s1", URL: b.srv.URL}}}
	r := newTestRouter(t, cfg)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	mm := tridiagMM(20)
	primary := Rank(r.names, inlineKey(t, mm))[0]
	shards := map[string]*fakeShard{"s0": a, "s1": b}
	second := "s0"
	if primary == "s0" {
		second = "s1"
	}

	// Primary rejects with 429: the router retries the second choice once.
	shards[primary].set(0, http.StatusTooManyRequests)
	v, status := postSpec(t, ts, cgSpec(mm, 1))
	if status != http.StatusAccepted {
		t.Fatalf("fallback submit: status %d", status)
	}
	if got := shardOf(t, v); got != second {
		t.Fatalf("429 at primary: job landed on %s, want fallback %s", got, second)
	}

	// Both reject: backpressure reaches the client as 429.
	shards[second].set(0, http.StatusTooManyRequests)
	_, status = postSpec(t, ts, cgSpec(mm, 2))
	if status != http.StatusTooManyRequests {
		t.Fatalf("fleet-wide 429: client saw %d, want 429", status)
	}
	if r.rejected.Load() != 1 {
		t.Fatalf("rejected counter = %d, want 1", r.rejected.Load())
	}
}

// The router validates a submission and then forwards the bytes it read, not
// a re-encoding of what it decoded; what fails validation never leaves it.
func TestSubmitForwardsClientBytesVerbatim(t *testing.T) {
	shard := newFakeShard(t)
	r := newTestRouter(t, Config{Shards: []Shard{{Name: "only", URL: shard.srv.URL}}})
	front := httptest.NewServer(r.Handler())
	defer front.Close()
	post := func(body io.Reader) int {
		t.Helper()
		resp, err := http.Post(front.URL+"/jobs", "application/json", body)
		if err != nil {
			t.Fatalf("POST /jobs: %v", err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	// Field order, spacing, escapes and a zero-valued field that Marshal would
	// write differently or drop.
	doc, err := json.Marshal(tridiagMM(16))
	if err != nil {
		t.Fatal(err)
	}
	body := "{ \"matrix\" : {\"mm\":" + strings.ReplaceAll(string(doc), `\n`, `\u000a`) + "},\n\t\"seed\": 0, \"backend\":\"bsp\", \"solver\":\"\\u0063g\" }\n"
	if status := post(strings.NewReader(body)); status != http.StatusAccepted {
		t.Fatalf("status %d, want 202", status)
	}
	if got := string(shard.received()); got != body {
		t.Fatalf("shard received\n%q\nclient sent\n%q", got, body)
	}

	// Rejections happen at the router: the shard sees no second submission.
	// The router reads an inline matrix's banner and size line only, so those
	// are the matrix errors it refuses; what is wrong with an entry is the
	// shard's to find.
	mmBody := func(doc string) io.Reader {
		mm, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return strings.NewReader(`{"solver":"lanczos","backend":"bsp","k":1,"matrix":{"mm":` + string(mm) + `}}`)
	}
	rejected := map[string]struct {
		body io.Reader
		want int
	}{
		"unknown field": {strings.NewReader(`{"solver":"cg","backend":"bsp","matrix":{"suite":"inline1"},"rhs":[1]}`), http.StatusBadRequest},
		"invalid spec":  {strings.NewReader(`{"solver":"qr","backend":"bsp","matrix":{"suite":"inline1"}}`), http.StatusBadRequest},
		"not json":      {strings.NewReader(`solver=cg`), http.StatusBadRequest},
		"trailing data": {strings.NewReader(`{"solver":"cg","backend":"bsp","matrix":{"suite":"inline1"}}{"solver":"qr"}`), http.StatusBadRequest},
		"banner":        {mmBody("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"), http.StatusBadRequest},
		"size line":     {mmBody("%%MatrixMarket matrix coordinate real general\n2 two 1\n1 1 1\n"), http.StatusBadRequest},
		"over MaxDim":   {mmBody(fmt.Sprintf("%%%%MatrixMarket matrix coordinate real general\n%d 1 1\n1 1 1\n", sparse.MaxDim+1)), http.StatusBadRequest},
		"not square":    {mmBody("%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1\n"), http.StatusBadRequest},
		"oversized": {io.MultiReader(
			strings.NewReader(`{"solver":"cg","backend":"bsp","matrix":{"mm":"`),
			bytes.NewReader(bytes.Repeat([]byte{'1'}, server.MaxJobBodyBytes)),
			strings.NewReader(`"}}`)), http.StatusRequestEntityTooLarge},
	}
	for name, c := range rejected {
		if status := post(c.body); status != c.want {
			t.Errorf("%s: status %d, want %d", name, status, c.want)
		}
	}
	if n := shard.submitted(); n != 1 {
		t.Fatalf("shard saw %d submissions, want only the valid one", n)
	}
}

func TestNoHealthyShard503(t *testing.T) {
	dead := httptest.NewServer(http.NewServeMux())
	url := dead.URL
	dead.Close() // nothing listening
	r := newTestRouter(t, Config{Shards: []Shard{{Name: "s0", URL: url}}})
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	_, status := postSpec(t, ts, cgSpec(tridiagMM(8), 1))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("dead fleet: status %d, want 503", status)
	}
	if r.unrouteable.Load() == 0 {
		t.Fatalf("unrouteable counter not incremented")
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router /healthz = %d with no healthy shard, want 503", resp.StatusCode)
	}
}

// TestEndToEndTwoEngines drives the router against two REAL server engines:
// jobs route by placement key, complete, and are addressable back through the
// router's namespaced IDs; /jobs merges both shards; /metrics aggregates.
func TestEndToEndTwoEngines(t *testing.T) {
	cfg := server.Config{QueueSize: 32, Workers: 2, RTWorkers: 2, CoalesceMax: 4, CoalesceWindow: 20 * time.Millisecond}
	tsA, tsB := newEngineShard(t, cfg), newEngineShard(t, cfg)

	r := newTestRouter(t, Config{
		Shards: []Shard{{Name: "left", URL: tsA.URL}, {Name: "right", URL: tsB.URL}},
	})
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	// Two structurally distinct matrices; submit a few jobs of each.
	mats := []string{tridiagMM(32), tridiagMM(48)}
	shardByMat := make([]string, len(mats))
	var ids []string
	for mi, mm := range mats {
		for seed := int64(1); seed <= 3; seed++ {
			v, status := postSpec(t, front, cgSpec(mm, seed))
			if status != http.StatusAccepted {
				t.Fatalf("matrix %d seed %d: status %d", mi, seed, status)
			}
			got := shardOf(t, v)
			if shardByMat[mi] == "" {
				shardByMat[mi] = got
			} else if got != shardByMat[mi] {
				t.Fatalf("matrix %d split across shards: %s then %s", mi, shardByMat[mi], got)
			}
			ids = append(ids, v.ID)
		}
	}

	// Every job reaches a terminal state through the router's GET.
	for _, id := range ids {
		if v := waitDone(t, front, id); v.Result == nil || !v.Result.Converged {
			t.Fatalf("job %s done but not converged: %+v", id, v.Result)
		}
	}

	// The merged listing shows all jobs with namespaced IDs.
	var all []server.JobView
	getJSON(t, front.URL+"/jobs", &all)
	listed := map[string]bool{}
	for _, v := range all {
		listed[v.ID] = true
	}
	for _, id := range ids {
		if !listed[id] {
			t.Fatalf("job %s missing from merged /jobs listing (%d listed)", id, len(all))
		}
	}

	// Aggregated metrics see the whole fleet.
	var ms MetricsSnapshot
	getJSON(t, front.URL+"/metrics", &ms)
	if ms.Totals.Done < int64(len(ids)) {
		t.Fatalf("aggregated done = %d, want >= %d", ms.Totals.Done, len(ids))
	}
	if ms.Router.Submitted != int64(len(ids)) {
		t.Fatalf("router submitted = %d, want %d", ms.Router.Submitted, len(ids))
	}
	if len(ms.ShardDetail) != 2 {
		t.Fatalf("shard detail for %d shards, want 2", len(ms.ShardDetail))
	}
	// One sweep per matrix, wherever it landed; every candidate of a sweep is
	// either a trial or pruned.
	var sweeps, candidates int64
	for _, d := range ms.ShardDetail {
		sweeps += d.PlanCache.AutotuneSweeps
		candidates += d.PlanCache.AutotuneTrials + d.PlanCache.AutotunePruned
	}
	if got := ms.Totals; got.AutotuneSweeps != int64(len(mats)) || got.AutotuneSweeps != sweeps ||
		got.AutotuneTrials < sweeps || got.AutotuneTrials+got.AutotunePruned != candidates {
		t.Fatalf("totals report %d sweeps, %d trials, %d pruned; shards ran %d sweeps over %d candidates",
			got.AutotuneSweeps, got.AutotuneTrials, got.AutotunePruned, sweeps, candidates)
	}
	// Inline matrices are placed by their header: the router never built one
	// to fingerprint it.
	if h, m, _ := r.fps.Stats(); h != 0 || m != 0 || r.fps.Len() != 0 {
		t.Fatalf("fingerprint cache hits=%d misses=%d size=%d after inline traffic only, want 0, 0, 0", h, m, r.fps.Len())
	}

	// Cancel through the router resolves the namespaced ID (terminal job:
	// cancel is a no-op but must route and answer 200).
	reqDel, err := http.NewRequestWithContext(context.Background(), http.MethodDelete, front.URL+"/jobs/"+ids[0], nil)
	if err != nil {
		t.Fatalf("new DELETE: %v", err)
	}
	dresp, err := http.DefaultClient.Do(reqDel)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE %s: status %d", ids[0], dresp.StatusCode)
	}

	// Unknown shard prefix and unqualified IDs are 404s at the router.
	for _, bad := range []string{"nope:job-1", "job-1"} {
		resp, err := http.Get(front.URL + "/jobs/" + bad)
		if err != nil {
			t.Fatalf("GET bad id: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET /jobs/%s: status %d, want 404", bad, resp.StatusCode)
		}
	}

	// The scheduler counters of the shards add up in the totals, the idle
	// protocol's (steal_fails, spins, parks, wakes) with the locality ones.
	// The jobs so far ran on bsp, which keeps none: send one through a
	// stealing backend first.
	spec := cgSpec(mats[0], 9)
	spec.Backend = "deepsparse"
	v, status := postSpec(t, front, spec)
	if status != http.StatusAccepted {
		t.Fatalf("deepsparse job: status %d", status)
	}
	waitDone(t, front, v.ID)
	ms = MetricsSnapshot{}
	getJSON(t, front.URL+"/metrics", &ms)
	var scheduler sched.LocalityStats
	for _, d := range ms.ShardDetail {
		scheduler.Add(d.Scheduler)
	}
	if scheduler.Tasks() == 0 || ms.Totals.Scheduler != scheduler {
		t.Fatalf("totals report scheduler counters %+v, shards sum to %+v", ms.Totals.Scheduler, scheduler)
	}
}

// TestProbeNowHonoursContext: a shard that accepts the connection and never
// answers holds a probe until its ctx expires, not for the client's 10 s
// timeout.
func TestProbeNowHonoursContext(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn // the accept loop's until it returns
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-accepted
		for _, c := range conns {
			c.Close()
		}
	})

	r, err := New(Config{Shards: []Shard{{Name: "silent", URL: "http://" + ln.Addr().String()}}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() {
		r.ProbeNow(ctx)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("ProbeNow still blocked 2 s after its 100 ms deadline:\n%s", buf[:runtime.Stack(buf, true)])
	}
	if st := r.shards[0].status(); st.Healthy || !strings.Contains(st.Error, "deadline exceeded") {
		t.Errorf("silent shard after a timed-out probe: healthy=%v error=%q, want unhealthy on the deadline", st.Healthy, st.Error)
	}
}
