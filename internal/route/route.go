// Package route implements solverfront's scale-out serving layer: one HTTP
// front end over N solverd shards. Placement is affinity routing — a job's
// matrix gets a placement key (for an inline document, a hash of its
// MatrixMarket header; for a suite matrix, its structural fingerprint, the
// key the shard-side plan cache uses) that is rendezvous-hashed to a shard,
// so repeat traffic for a matrix keeps landing where its autotuned plan, its
// operator and IC(0) factors, and its batch-coalescing peers already are.
// The router holds no placement table: Rank is a pure function, so restarts
// and replicas agree. A queue-depth spill heuristic demotes an overloaded
// primary to its second rendezvous choice, and a one-hop retry turns a
// shard's 429 into a fallback attempt before backpressure reaches the
// client.
package route

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sparsetask/internal/sched"
	"sparsetask/internal/server"
	"sparsetask/internal/sparse"
)

// Shard names one solverd instance behind the router.
type Shard struct {
	// Name keys the rendezvous hash: it IS the placement, so it must stay
	// stable across router restarts and must not contain ":" (the job-ID
	// namespace separator).
	Name string
	// URL is the shard's base URL, e.g. "http://127.0.0.1:8081".
	URL string
}

// Config sizes the router.
type Config struct {
	Shards []Shard
	// ProbeInterval is the /healthz polling period. Default 500ms.
	ProbeInterval time.Duration
	// SpillFraction is the queue occupancy (depth/capacity) at which a
	// submission spills from its first-choice shard to the second rendezvous
	// choice. Default 0.75.
	SpillFraction float64
	// FingerprintCacheSize bounds the identity→fingerprint LRU that places
	// suite matrices. Default 256.
	FingerprintCacheSize int
	// Client overrides the HTTP client used for probing and proxying
	// (default: 10s timeout).
	Client *http.Client
}

// Router fronts the shard fleet. Create with New, mount Handler() on an
// http.Server, and call Close on shutdown to stop the probers.
type Router struct {
	cfg    Config
	client *http.Client
	shards []*shardState
	byName map[string]*shardState
	names  []string // rendezvous input, config order
	fps    *fpCache
	mux    *http.ServeMux

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	submitted   atomic.Int64 // jobs accepted by a shard
	spilled     atomic.Int64 // jobs placed off their first rendezvous choice
	rejected    atomic.Int64 // 429s propagated to clients
	unrouteable atomic.Int64 // 503s: no placeable shard
}

// New validates the shard set and starts one health prober per shard.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("route: need at least one shard")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.SpillFraction <= 0 || cfg.SpillFraction > 1 {
		cfg.SpillFraction = 0.75
	}
	if cfg.FingerprintCacheSize <= 0 {
		cfg.FingerprintCacheSize = 256
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Router{
		cfg:    cfg,
		client: client,
		byName: make(map[string]*shardState, len(cfg.Shards)),
		fps:    newFPCache(cfg.FingerprintCacheSize),
		ctx:    ctx,
		cancel: cancel,
	}
	for _, sh := range cfg.Shards {
		if sh.Name == "" || strings.Contains(sh.Name, ":") {
			cancel()
			return nil, fmt.Errorf("route: bad shard name %q (must be non-empty, no %q)", sh.Name, ":")
		}
		if sh.URL == "" {
			cancel()
			return nil, fmt.Errorf("route: shard %s needs a URL", sh.Name)
		}
		if _, dup := r.byName[sh.Name]; dup {
			cancel()
			return nil, fmt.Errorf("route: duplicate shard name %q", sh.Name)
		}
		st := &shardState{name: sh.Name, base: strings.TrimRight(sh.URL, "/")}
		r.shards = append(r.shards, st)
		r.byName[sh.Name] = st
		r.names = append(r.names, sh.Name)
	}
	r.mux = http.NewServeMux()
	r.mux.HandleFunc("POST /jobs", r.handleSubmit)
	r.mux.HandleFunc("GET /jobs", r.handleList)
	r.mux.HandleFunc("GET /jobs/{id}", r.handleGet)
	r.mux.HandleFunc("DELETE /jobs/{id}", r.handleCancel)
	r.mux.HandleFunc("GET /metrics", r.handleMetrics)
	r.mux.HandleFunc("GET /healthz", r.handleHealth)
	r.wg.Add(len(r.shards))
	for _, st := range r.shards {
		go r.prober(st)
	}
	return r, nil
}

// Handler exposes the HTTP API — the same surface a single solverd serves,
// so clients and loadgen point at either interchangeably.
func (r *Router) Handler() http.Handler { return r.mux }

// Close stops the probers and waits for them to exit. It does not drain the
// shards; each solverd owns its own drain.
func (r *Router) Close() {
	r.cancel()
	r.wg.Wait()
}

// Assign returns the shard name a placement key routes to, before health or
// spill adjustments — the stable rendezvous placement.
func (r *Router) Assign(key uint64) string {
	return Rank(r.names, key)[0]
}

// candidates returns placeable shards in placement order for a placement
// key, and the key's first rendezvous choice whether placeable or not:
// rendezvous rank, with the primary demoted behind the runner-up once its
// queue occupancy crosses SpillFraction — but only when the runner-up is
// strictly less loaded, so a uniformly saturated fleet doesn't ping-pong
// jobs away from their warm caches for nothing.
func (r *Router) candidates(key uint64) (out []*shardState, primary string) {
	rank := Rank(r.names, key)
	out = make([]*shardState, 0, len(r.shards))
	for _, n := range rank {
		if s := r.byName[n]; s.placeable() {
			out = append(out, s)
		}
	}
	if len(out) >= 2 {
		po, so := out[0].occupancy(), out[1].occupancy()
		if po >= r.cfg.SpillFraction && so >= 0 && so < po {
			out[0], out[1] = out[1], out[0]
		}
	}
	return out, rank[0]
}

// placementKey is what a job's matrix is rendezvous-hashed by. An inline
// matrix is placed by its MatrixMarket header alone (headerKey), so the
// router never parses a document the shard will parse anyway; a header it
// refuses never reaches a shard. A suite matrix is placed by its structural
// fingerprint, memoized per identity.
func (r *Router) placementKey(m server.MatrixSpec) (uint64, error) {
	if m.MM == "" {
		return r.fps.fingerprint(m)
	}
	h, err := sparse.ReadMatrixMarketHeader(strings.NewReader(m.MM))
	if err != nil {
		return 0, err
	}
	return headerKey(h), nil
}

// headerKey hashes what an inline document's banner and size line declare.
// Identical documents share it, and so does one structure re-sent with new
// values, so both land where the operator and plan caches are warm. Two
// encodings of one structure (symmetric and general) may land apart, which
// costs the second shard one autotune sweep.
func headerKey(h sparse.MMHeader) uint64 {
	f := fnv.New64a()
	f.Write([]byte(fmt.Sprintf("mm:%s:%s:%d:%d:%d", h.Field, h.Symmetry, h.Rows, h.Cols, h.NNZ)))
	return f.Sum64()
}

func (r *Router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	// body is the request as the client sent it: having validated it, the
	// router forwards those bytes rather than re-encoding the spec it decoded
	// (an inline matrix makes that spec most of a megabyte).
	spec, body, status, err := server.ReadJobSpec(w, req)
	if err != nil {
		server.WriteError(w, status, err)
		return
	}
	key, err := r.placementKey(spec.Matrix)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("%w: %w", server.ErrBadMatrix, err))
		return
	}
	cands, primary := r.candidates(key)
	if len(cands) == 0 {
		r.unrouteable.Add(1)
		server.WriteError(w, http.StatusServiceUnavailable, errors.New("no healthy shard"))
		return
	}
	if len(cands) > 2 {
		// Primary plus one fallback: bounded tail latency, and affinity decays
		// fast past the second choice anyway.
		cands = cands[:2]
	}
	var lastStatus int
	var lastBody []byte
	for _, s := range cands {
		status, respBody, err := r.proxy(req.Context(), http.MethodPost, s, "/jobs", body)
		if err != nil {
			// Unreachable mid-interval: mark it down now and try the fallback.
			s.setUnhealthy(err.Error())
			continue
		}
		switch status {
		case http.StatusAccepted:
			r.submitted.Add(1)
			if s.name != primary {
				r.spilled.Add(1)
			}
			r.writePrefixedView(w, status, s.name, respBody)
			return
		case http.StatusTooManyRequests:
			s.markFull()
			lastStatus, lastBody = status, respBody
			continue
		default:
			// 400/503/...: the shard's verdict on the spec is authoritative.
			writeRaw(w, status, respBody)
			return
		}
	}
	if lastStatus == http.StatusTooManyRequests {
		r.rejected.Add(1)
		writeRaw(w, lastStatus, lastBody)
		return
	}
	r.unrouteable.Add(1)
	server.WriteError(w, http.StatusServiceUnavailable, errors.New("no shard reachable"))
}

// handleList fans GET /jobs out to every shard and merges the results, job
// IDs namespaced "shard:id". Unreachable shards are skipped — a partial
// listing beats a failed one during a rolling restart.
func (r *Router) handleList(w http.ResponseWriter, req *http.Request) {
	views := make([][]server.JobView, len(r.shards))
	var wg sync.WaitGroup
	wg.Add(len(r.shards))
	for i, s := range r.shards {
		go func(i int, s *shardState) {
			defer wg.Done()
			status, body, err := r.proxy(req.Context(), http.MethodGet, s, "/jobs", nil)
			if err != nil || status != http.StatusOK {
				return
			}
			var vs []server.JobView
			if json.Unmarshal(body, &vs) != nil {
				return
			}
			for j := range vs {
				vs[j].ID = s.name + ":" + vs[j].ID
			}
			views[i] = vs
		}(i, s)
	}
	wg.Wait()
	merged := []server.JobView{}
	for _, vs := range views {
		merged = append(merged, vs...)
	}
	server.WriteJSON(w, http.StatusOK, merged)
}

// shardJob splits a namespaced job ID "shard:id" into its shard and the
// shard-local ID.
func (r *Router) shardJob(id string) (*shardState, string, error) {
	name, local, ok := strings.Cut(id, ":")
	if !ok {
		return nil, "", fmt.Errorf("job id %q is not shard-qualified (want shard:id)", id)
	}
	s := r.byName[name]
	if s == nil {
		return nil, "", fmt.Errorf("no shard %q", name)
	}
	return s, local, nil
}

func (r *Router) proxyJob(w http.ResponseWriter, req *http.Request, method string) {
	id := req.PathValue("id")
	s, local, err := r.shardJob(id)
	if err != nil {
		server.WriteError(w, http.StatusNotFound, err)
		return
	}
	status, body, err := r.proxy(req.Context(), method, s, "/jobs/"+local, nil)
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, fmt.Errorf("shard %s: %w", s.name, err))
		return
	}
	if status != http.StatusOK {
		writeRaw(w, status, body)
		return
	}
	r.writePrefixedView(w, status, s.name, body)
}

func (r *Router) handleGet(w http.ResponseWriter, req *http.Request) {
	r.proxyJob(w, req, http.MethodGet)
}

func (r *Router) handleCancel(w http.ResponseWriter, req *http.Request) {
	r.proxyJob(w, req, http.MethodDelete)
}

// MetricsSnapshot is the router's /metrics payload: its own routing
// counters, fleet-aggregated job totals, per-shard health, and each
// reachable shard's full metrics snapshot.
type MetricsSnapshot struct {
	Router struct {
		Shards      int   `json:"shards"`
		Submitted   int64 `json:"submitted"`
		Spilled     int64 `json:"spilled"`
		Rejected    int64 `json:"rejected"`
		Unrouteable int64 `json:"unrouteable"`
	} `json:"router"`
	FingerprintCache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
		Size   int   `json:"size"`
	} `json:"fingerprint_cache"`
	Totals struct {
		Submitted        int64 `json:"submitted"`
		Rejected         int64 `json:"rejected"`
		Done             int64 `json:"done"`
		Failed           int64 `json:"failed"`
		Canceled         int64 `json:"canceled"`
		Queued           int   `json:"queued"`
		Running          int   `json:"running"`
		QueueDepth       int   `json:"queue_depth"`
		QueueCapacity    int   `json:"queue_capacity"`
		CoalescedBatches int64 `json:"coalesced_batches"`
		BatchedJobs      int64 `json:"batched_jobs"`
		// Autotune* sum the shards' block-size searches: sweeps run, and the
		// candidates they evaluated and skipped on their bound.
		AutotuneSweeps int64 `json:"autotune_sweeps"`
		AutotuneTrials int64 `json:"autotune_trials"`
		AutotunePruned int64 `json:"autotune_pruned"`
		// Operator* sum the shards' identity-keyed operator caches: lookups
		// that found a built matrix, matrices actually built, and what the
		// fleet holds against its combined byte budget.
		OperatorHits          int64 `json:"operator_hits"`
		OperatorBuilds        int64 `json:"operator_builds"`
		OperatorBytes         int64 `json:"operator_bytes"`
		OperatorCapacityBytes int64 `json:"operator_capacity_bytes"`
		// Scheduler sums the shards' executor counters: where tasks were
		// acquired and placed, and what idle workers did (failed steals,
		// spin rounds, parks, wakes).
		Scheduler sched.LocalityStats `json:"scheduler"`
	} `json:"totals"`
	Shards      []ShardStatus                     `json:"shards"`
	ShardDetail map[string]server.MetricsSnapshot `json:"shard_detail"`
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	var snap MetricsSnapshot
	snap.Router.Shards = len(r.shards)
	snap.Router.Submitted = r.submitted.Load()
	snap.Router.Spilled = r.spilled.Load()
	snap.Router.Rejected = r.rejected.Load()
	snap.Router.Unrouteable = r.unrouteable.Load()
	snap.FingerprintCache.Hits, snap.FingerprintCache.Misses, snap.FingerprintCache.Size = r.fps.stats()
	snap.ShardDetail = make(map[string]server.MetricsSnapshot, len(r.shards))

	type fetched struct {
		status ShardStatus
		detail *server.MetricsSnapshot
	}
	results := make([]fetched, len(r.shards))
	var wg sync.WaitGroup
	wg.Add(len(r.shards))
	for i, s := range r.shards {
		go func(i int, s *shardState) {
			defer wg.Done()
			results[i].status = s.status()
			status, body, err := r.proxy(req.Context(), http.MethodGet, s, "/metrics", nil)
			if err != nil || status != http.StatusOK {
				return
			}
			var ms server.MetricsSnapshot
			if json.Unmarshal(body, &ms) == nil {
				results[i].detail = &ms
			}
		}(i, s)
	}
	wg.Wait()
	for i, s := range r.shards {
		snap.Shards = append(snap.Shards, results[i].status)
		ms := results[i].detail
		if ms == nil {
			continue
		}
		snap.ShardDetail[s.name] = *ms
		snap.Totals.Submitted += ms.Jobs.Submitted
		snap.Totals.Rejected += ms.Jobs.Rejected
		snap.Totals.Done += ms.Jobs.Done
		snap.Totals.Failed += ms.Jobs.Failed
		snap.Totals.Canceled += ms.Jobs.Canceled
		snap.Totals.Queued += ms.Jobs.Queued
		snap.Totals.Running += ms.Jobs.Running
		snap.Totals.QueueDepth += ms.Queue.Depth
		snap.Totals.QueueCapacity += ms.Queue.Capacity
		snap.Totals.CoalescedBatches += ms.Batching.CoalescedBatches
		snap.Totals.BatchedJobs += ms.Batching.BatchedJobs
		snap.Totals.AutotuneSweeps += ms.PlanCache.AutotuneSweeps
		snap.Totals.AutotuneTrials += ms.PlanCache.AutotuneTrials
		snap.Totals.AutotunePruned += ms.PlanCache.AutotunePruned
		snap.Totals.OperatorHits += ms.OperatorCache.Hits
		snap.Totals.OperatorBuilds += ms.OperatorCache.Builds
		snap.Totals.OperatorBytes += ms.OperatorCache.Bytes
		snap.Totals.OperatorCapacityBytes += ms.OperatorCache.CapacityBytes
		snap.Totals.Scheduler.Add(ms.Scheduler)
	}
	server.WriteJSON(w, http.StatusOK, snap)
}

// handleHealth reports ok while at least one shard is placeable.
func (r *Router) handleHealth(w http.ResponseWriter, req *http.Request) {
	statuses := make([]ShardStatus, len(r.shards))
	healthy := 0
	for i, s := range r.shards {
		statuses[i] = s.status()
		if s.placeable() {
			healthy++
		}
	}
	body := map[string]any{
		"status":  "ok",
		"healthy": healthy,
		"shards":  statuses,
	}
	code := http.StatusOK
	if healthy == 0 {
		body["status"] = "unavailable"
		code = http.StatusServiceUnavailable
	}
	server.WriteJSON(w, code, body)
}

// proxy performs one round trip to a shard and returns the status and body.
func (r *Router) proxy(ctx context.Context, method string, s *shardState, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// writePrefixedView re-serves a shard's JobView with its ID namespaced
// "shard:id" so clients can address the job through the router.
func (r *Router) writePrefixedView(w http.ResponseWriter, status int, shard string, body []byte) {
	var v server.JobView
	if err := json.Unmarshal(body, &v); err != nil {
		server.WriteError(w, http.StatusBadGateway, fmt.Errorf("shard %s: bad job view: %w", shard, err))
		return
	}
	v.ID = shard + ":" + v.ID
	server.WriteJSON(w, status, v)
}

func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//lint:ignore sparselint/errflow status line is already on the wire; a short write has no channel back to the client
	_, _ = w.Write(body)
}
