package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"sparsetask/internal/route"
	"sparsetask/internal/server"
	"sparsetask/internal/sparse"
)

// The serving workloads: a client of solverfront/solverd. An operation is one
// job, timed by the client from POST to the poll that sees a terminal state.
// Both workloads run the same topology and loop and differ only in the job
// stream.

// Shard configuration: solverd's defaults, with one compute thread per shard
// so two shards do not oversubscribe a small box.
var shardConfig = server.Config{
	QueueSize: 64, Workers: 1, RTWorkers: 1,
	CoalesceMax: 8, CoalesceWindow: 2 * time.Millisecond,
}

const (
	shardCount   = 2
	pollInterval = time.Millisecond
	jobBackend   = "deepsparse"
	eigenK       = 8
	lobpcgIters  = 10
	jobTimeout   = 60 * time.Second
)

// cluster is an in-process route.Router in front of server.Server shards,
// each behind its own loopback listener.
type cluster struct {
	shards    []*server.Server
	shardTS   []*httptest.Server
	router    *route.Router
	front     *httptest.Server
	transport *http.Transport
	client    *http.Client
}

// bootCluster starts the shards and the router and waits until the router's
// health probes have found every shard.
func bootCluster() (*cluster, error) {
	// The default transport keeps two idle connections per host; a poll every
	// millisecond from several clients would then open and close thousands of
	// loopback connections per second and run the box out of ports.
	c := &cluster{transport: &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 64, IdleConnTimeout: time.Minute}}
	c.client = &http.Client{Timeout: jobTimeout, Transport: c.transport}
	var shards []route.Shard
	for i := 0; i < shardCount; i++ {
		srv := server.New(shardConfig)
		ts := httptest.NewServer(srv.Handler())
		c.shards, c.shardTS = append(c.shards, srv), append(c.shardTS, ts)
		shards = append(shards, route.Shard{Name: fmt.Sprintf("s%d", i), URL: ts.URL})
	}
	r, err := route.New(route.Config{Shards: shards, Client: &http.Client{Timeout: 10 * time.Second, Transport: c.transport}})
	if err != nil {
		_ = c.close()
		return nil, err
	}
	c.router = r
	c.front = httptest.NewServer(r.Handler())
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h struct {
			Healthy int `json:"healthy"`
		}
		if err := c.getJSON(c.front.URL+"/healthz", &h); err == nil && h.Healthy == shardCount {
			return c, nil
		}
		if time.Now().After(deadline) {
			_ = c.close()
			return nil, fmt.Errorf("router did not find %d healthy shards", shardCount)
		}
		time.Sleep(pollInterval)
	}
}

// close stops the front, the router's probers and the shards, and waits for
// each to finish.
func (c *cluster) close() error {
	if c.front != nil {
		c.front.Close()
	}
	if c.router != nil {
		c.router.Close()
	}
	var first error
	for i, srv := range c.shards {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := srv.Drain(ctx); err != nil && first == nil {
			first = fmt.Errorf("drain shard %d: %w", i, err)
		}
		cancel()
		c.shardTS[i].Close()
	}
	c.transport.CloseIdleConnections()
	return first
}

func (c *cluster) getJSON(url string, v any) error {
	resp, err := c.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// post submits a job body to base and returns the accepted job's view.
func (c *cluster) post(base string, body []byte) (server.JobView, error) {
	var v server.JobView
	resp, err := c.client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return v, fmt.Errorf("submit refused: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	err = json.NewDecoder(resp.Body).Decode(&v)
	return v, err
}

func terminal(s server.State) bool {
	return s == server.StateDone || s == server.StateFailed || s == server.StateCanceled
}

// jobReq is one job the benchmark will submit, with what its verifier needs.
type jobReq struct {
	body []byte
	// spec is the job spec less its inline MatrixMarket document, which can be
	// a quarter of a megabyte and is already in body.
	spec   server.JobSpec
	inline bool   // the matrix travels in the request
	matrix string // label: suite name, or generator and dimensions
	// seq orders the jobs of a stream the way the seed dealt them, whichever
	// client ends up running them and whenever.
	seq int
	// coo regenerates the matrix the spec names, for the reference solvers.
	coo func() (*sparse.COO, error)
	// refKey, when set, memoizes the eigen reference: working-set matrices are
	// submitted many times with the same solver seed.
	refKey string
}

func newJobReq(spec server.JobSpec, matrix, refKey string, coo func() (*sparse.COO, error)) (*jobReq, error) {
	body, err := json.Marshal(spec)
	req := &jobReq{body: body, spec: spec, inline: spec.Matrix.MM != "", matrix: matrix, coo: coo, refKey: refKey}
	req.spec.Matrix.MM = ""
	return req, err
}

// document returns the inline MatrixMarket document of the request.
func (r *jobReq) document() (string, error) {
	var spec server.JobSpec
	err := json.Unmarshal(r.body, &spec)
	return spec.Matrix.MM, err
}

// jobRecord is one job as its client saw it.
type jobRecord struct {
	req      *jobReq
	start    time.Time // when the client began the POST
	submitMS float64
	totalMS  float64
	polls    int
	view     server.JobView
	err      string
}

// The four intervals a finished job's latency splits into exactly, from the
// client's clock and the timestamps in the JobView (one process, one clock):
// POST start → accepted by a shard → started → finished → seen by a poll.
func (r jobRecord) admitMS() float64 { return ms(r.view.SubmittedAt.Sub(r.start)) }

func (r jobRecord) lagMS() float64 {
	if r.view.FinishedAt == nil {
		return 0
	}
	return r.totalMS - ms(r.view.FinishedAt.Sub(r.start))
}

func (r jobRecord) queueMS() float64 {
	if r.view.StartedAt == nil {
		return 0
	}
	return ms(r.view.StartedAt.Sub(r.view.SubmittedAt))
}

func (r jobRecord) runMS() float64 {
	if r.view.StartedAt == nil || r.view.FinishedAt == nil {
		return 0
	}
	return ms(r.view.FinishedAt.Sub(*r.view.StartedAt))
}

func (r jobRecord) batchSize() int {
	if r.view.Result == nil || r.view.Result.BatchSize < 2 {
		return 1
	}
	return r.view.Result.BatchSize
}

// jobStream hands out a workload's jobs. next returns the jobs of client ci's
// next turn — one job, or a burst submitted back to back — or nil when the
// stream is exhausted.
type jobStream interface {
	warmup() []*jobReq
	next(ci int) []*jobReq
	// expectations of the workload-validity guards on every measured job.
	wantCached() bool
}

// serving is a set-up serving workload: a booted cluster, warmed up.
type serving struct {
	e      env
	c      *cluster
	stream jobStream
	refs   *eigRefs
}

// setupServing boots shards and router, waits for the health probes, and runs
// the stream's warm-up jobs to completion one at a time.
func setupServing(e env, stream jobStream, tr *tracer) (instance, error) {
	op := tr.newOp()
	root := tr.begin(0, op, "client", "setup")
	defer tr.end(root)
	var c *cluster
	if err := stage(tr, root, op, "route", "boot", new(float64), func() (err error) {
		c, err = bootCluster()
		return err
	}); err != nil {
		return nil, err
	}
	s := &serving{e: e, c: c, stream: stream, refs: &eigRefs{}}
	warm := tr.begin(root, op, "client", "warmup")
	defer tr.end(warm)
	for _, req := range stream.warmup() {
		rec := s.runJobs(nil, 0, []*jobReq{req})[0]
		if rec.err != "" || rec.view.State != server.StateDone {
			_ = c.close()
			return nil, fmt.Errorf("warm-up %s on %s: state %q %s %s", req.spec.Solver, req.matrix, rec.view.State, rec.view.Error, rec.err)
		}
	}
	return s, nil
}

// runJobs is one client turn: submit every job back to back, then poll each
// every pollInterval until all are terminal.
func (s *serving) runJobs(tr *tracer, op int, reqs []*jobReq) []jobRecord {
	recs := make([]jobRecord, len(reqs))
	starts := make([]time.Time, len(reqs))
	posted := make([]time.Time, len(reqs))
	for i, req := range reqs {
		starts[i] = time.Now()
		recs[i] = jobRecord{req: req, start: starts[i]}
		v, err := s.c.post(s.c.front.URL, req.body)
		posted[i] = time.Now()
		recs[i].submitMS = ms(posted[i].Sub(starts[i]))
		recs[i].view = v
		if err != nil {
			recs[i].err = err.Error()
			recs[i].totalMS = recs[i].submitMS
		}
	}
	pending := 0
	for i := range recs {
		if recs[i].err == "" {
			pending++
		}
	}
	deadline := time.Now().Add(jobTimeout)
	for pending > 0 {
		time.Sleep(pollInterval)
		for i := range recs {
			if recs[i].err != "" || terminal(recs[i].view.State) {
				continue
			}
			var v server.JobView
			err := s.c.getJSON(s.c.front.URL+"/jobs/"+recs[i].view.ID, &v)
			recs[i].polls++
			switch {
			case err != nil:
				recs[i].err = err.Error()
			case time.Now().After(deadline):
				recs[i].err = "timed out waiting for a terminal state"
			default:
				recs[i].view = v
			}
			if recs[i].err != "" || terminal(v.State) {
				recs[i].totalMS = ms(time.Since(starts[i]))
				pending--
			}
		}
	}
	if tr != nil {
		for i, r := range recs {
			end := starts[i].Add(time.Duration(r.totalMS * 1e6))
			job := tr.add(0, op, "client", "job:"+r.req.spec.Solver, starts[i], end)
			tr.add(job, op, "route", "submit", starts[i], posted[i])
			wait := tr.add(job, op, "client", "wait", posted[i], end)
			if r.view.StartedAt != nil && r.view.FinishedAt != nil {
				tr.add(wait, op, "server", "queue", r.view.SubmittedAt, *r.view.StartedAt)
				tr.add(wait, op, "server", "run", *r.view.StartedAt, *r.view.FinishedAt)
			}
			tr.count("client.jobs", 1)
			tr.count("client.polls", int64(r.polls))
		}
	}
	return recs
}

// clusterDelta is what the front's /metrics counted during one pass.
type clusterDelta struct {
	planSumMS, solveSumMS        float64
	planN, solveN                int64
	planHits, planMisses         int64
	factorHits, factorMisses     int64
	planEvictions, factorEvicted int64
	sweeps, factorizations       int64
	rejected, spilled            int64
	fpHits, fpMisses             int64
}

func (s *serving) snapshot() (clusterDelta, error) {
	var m route.MetricsSnapshot
	if err := s.c.getJSON(s.c.front.URL+"/metrics", &m); err != nil {
		return clusterDelta{}, err
	}
	d := clusterDelta{
		rejected: m.Router.Rejected + m.Totals.Rejected, spilled: m.Router.Spilled,
		fpHits: m.FingerprintCache.Hits, fpMisses: m.FingerprintCache.Misses,
	}
	for _, sh := range m.ShardDetail {
		d.planSumMS += sh.Latency.Plan.SumMS
		d.planN += sh.Latency.Plan.Count
		d.solveSumMS += sh.Latency.Solve.SumMS
		d.solveN += sh.Latency.Solve.Count
		d.planHits += sh.PlanCache.Hits
		d.planMisses += sh.PlanCache.Misses
		d.planEvictions += sh.PlanCache.Evictions
		d.factorHits += sh.FactorCache.Hits
		d.factorMisses += sh.FactorCache.Misses
		d.factorEvicted += sh.FactorCache.Evictions
		d.sweeps += sh.PlanCache.AutotuneSweeps
		d.factorizations += sh.FactorCache.Factorizations
	}
	return d, nil
}

func (a clusterDelta) minus(b clusterDelta) clusterDelta {
	return clusterDelta{
		planSumMS: a.planSumMS - b.planSumMS, solveSumMS: a.solveSumMS - b.solveSumMS,
		planN: a.planN - b.planN, solveN: a.solveN - b.solveN,
		planHits: a.planHits - b.planHits, planMisses: a.planMisses - b.planMisses,
		factorHits: a.factorHits - b.factorHits, factorMisses: a.factorMisses - b.factorMisses,
		planEvictions: a.planEvictions - b.planEvictions, factorEvicted: a.factorEvicted - b.factorEvicted,
		sweeps: a.sweeps - b.sweeps, factorizations: a.factorizations - b.factorizations,
		rejected: a.rejected - b.rejected, spilled: a.spilled - b.spilled,
		fpHits: a.fpHits - b.fpHits, fpMisses: a.fpMisses - b.fpMisses,
	}
}

// measure runs the closed loop: P client goroutines, each taking its next
// turn from the stream as soon as its previous one is terminal, until d has
// passed or the stream runs out.
func (s *serving) measure(tr *tracer, d time.Duration) pass {
	var p pass
	before, err := s.snapshot()
	if err != nil {
		p.attempted++
		p.fail("metrics: %v", err)
	}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	start := time.Now()
	for ci := 0; ci < s.e.p; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			// Every client takes at least one turn, so a short pass still reports.
			for turn := 0; turn == 0 || time.Since(start) < d; turn++ {
				reqs := s.stream.next(ci)
				if reqs == nil {
					return
				}
				recs := s.runJobs(tr, tr.newOp(), reqs)
				mu.Lock()
				p.jobs = append(p.jobs, recs...)
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	p.wall = time.Since(start)
	if after, err := s.snapshot(); err == nil {
		p.cluster = after.minus(before)
	}
	for _, r := range p.jobs {
		p.attempted++
		p.ops = append(p.ops, r.totalMS)
	}
	return p
}

func (s *serving) close() error { return s.c.close() }

// verify checks every job of the pass: done, converged, residual within
// tolerance, eigenvalues equal to the sequential reference solver's; and the
// workload-validity guards that do not depend on timing.
func (s *serving) verify(p *pass) {
	cachedPlan, cachedFactor, tuned, factored, batched, batchable := 0, 0, 0, 0, 0, 0
	for _, r := range p.jobs {
		if msg := s.checkJob(r); msg != "" {
			p.fail("%s job on %s: %s", r.req.spec.Solver, r.req.matrix, msg)
			continue
		}
		res := r.view.Result
		switch res.PlanSource {
		case "cache":
			cachedPlan++
		case "autotune", "fallback":
			tuned++
		}
		switch res.FactorSource {
		case "cache":
			cachedFactor++
		case "computed":
			factored++
		}
		if s := r.req.spec.Solver; s == "cg" || s == "pcg" {
			batchable++
			if res.BatchSize >= 2 {
				batched++
			}
		}
	}
	if s.stream.wantCached() {
		p.guards = append(p.guards,
			guard{Name: "never_recomputes", Hard: true, OK: tuned == 0 && factored == 0,
				Detail: fmt.Sprintf("%d jobs tuned a plan and %d factorized after warm-up (want 0 and 0)", tuned, factored)},
			guard{Name: "coalesced_share>=0.6", OK: batchable > 0 && float64(batched) >= 0.6*float64(batchable),
				Detail: fmt.Sprintf("%d of %d cg/pcg jobs ran in a batch", batched, batchable)})
	} else {
		p.guards = append(p.guards,
			guard{Name: "never_hits_a_cache", Hard: true, OK: cachedPlan == 0 && cachedFactor == 0 && p.cluster.fpHits == 0,
				Detail: fmt.Sprintf("%d plan, %d factor and %d router fingerprint cache hits (want 0, 0, 0)", cachedPlan, cachedFactor, p.cluster.fpHits)})
	}
}

func (s *serving) checkJob(r jobRecord) string {
	if r.err != "" {
		return r.err
	}
	if r.view.State != server.StateDone || r.view.Result == nil {
		return fmt.Sprintf("state %q: %s", r.view.State, r.view.Error)
	}
	res, spec := r.view.Result, r.req.spec
	switch spec.Solver {
	case "cg", "pcg":
		if !res.Converged || !(res.Residual <= residualTol) {
			return fmt.Sprintf("converged=%v residual=%.3e", res.Converged, res.Residual)
		}
		return ""
	case "lanczos":
		if !res.Converged {
			return "not converged"
		}
	case "lobpcg":
		if res.Iterations != spec.Iters {
			return fmt.Sprintf("%d iterations, asked for %d", res.Iterations, spec.Iters)
		}
	}
	want, err := s.refs.eig(r.req)
	if err != nil {
		return "reference: " + err.Error()
	}
	return eigMismatch(spec.Solver, res.Eigenvalues, want)
}

// eigRefs computes eigenvalue references with the sequential reference
// solvers and remembers the ones for working-set matrices.
type eigRefs struct {
	mu   sync.Mutex
	memo map[string][]float64
}

func (e *eigRefs) eig(req *jobReq) ([]float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if v, ok := e.memo[req.refKey]; ok && req.refKey != "" {
		return v, nil
	}
	coo, err := req.coo()
	if err != nil {
		return nil, err
	}
	spec := solveSpec{solver: req.spec.Solver, k: req.spec.K, iters: req.spec.Iters, seed: req.spec.Seed}
	v, err := referenceEig(coo.ToCSR(), spec)
	if err == nil && req.refKey != "" {
		if e.memo == nil {
			e.memo = map[string][]float64{}
		}
		e.memo[req.refKey] = v
	}
	return v, err
}

// clientRNG derives client ci's private stream from the workload seed.
func clientRNG(seed int64, ci int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1009 + int64(ci)))
}
