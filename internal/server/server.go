package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"sparsetask/internal/rt"
	"sparsetask/internal/sched"
)

// Server is the HTTP skin over the job Engine: it decodes and validates job
// specs, maps the engine's admission errors to status codes, and serializes
// job views and metrics. All queueing, coalescing, execution, and cache
// state lives in the embedded Engine — Server adds no state of its own
// beyond the mux. Create with New, mount Handler() on an http.Server, and
// call Drain on shutdown.
type Server struct {
	*Engine
	mux *http.ServeMux
}

// New starts an engine and wraps it in the HTTP API.
func New(cfg Config) *Server {
	s := &Server{Engine: NewEngine(cfg)}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

// Handler exposes the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain gracefully shuts the engine down (see Engine.Drain).
func (s *Server) Drain(ctx context.Context) error { return s.Engine.Drain(ctx) }

// WriteJSON answers with status and v as indented JSON, on solverd and on the
// router alike. v is encoded before the status line is written, so a value
// JSON cannot carry (a NaN, say) is a 500 with an error body, never the
// status asked for with an empty one.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		//lint:ignore sparselint/errflow a map of strings always encodes
		_ = enc.Encode(map[string]string{"error": "encode response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//lint:ignore sparselint/errflow status line is already on the wire; a short write has no channel back to the client
	_, _ = w.Write(buf.Bytes())
}

// WriteError answers with status and {"error": err}.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// MaxJobBodyBytes caps a POST /jobs body, on solverd and on the router alike.
// The body is held whole — an inline matrix is one JSON string — so without a
// cap a client sizes the server's memory before Validate has seen a byte.
// 32 MiB is about a million inline MatrixMarket entries.
const MaxJobBodyBytes = 32 << 20

// ReadJobSpec reads a POST /jobs body, capped at MaxJobBodyBytes, and decodes
// and validates the spec in it. It returns the bytes as the client sent them,
// which is what the router forwards to a shard. On failure status is the HTTP
// status to answer with: 413 for an oversized body, 400 otherwise.
func ReadJobSpec(w http.ResponseWriter, r *http.Request) (spec JobSpec, body []byte, status int, err error) {
	body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, MaxJobBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return spec, nil, http.StatusRequestEntityTooLarge, fmt.Errorf("job spec exceeds %d bytes", tooBig.Limit)
		}
		return spec, nil, http.StatusBadRequest, fmt.Errorf("bad job spec: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, nil, http.StatusBadRequest, fmt.Errorf("bad job spec: %w", err)
	}
	// A second value after the spec would be ignored silently, and the router
	// forwards the body as sent: only JSON white space may follow.
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return spec, nil, http.StatusBadRequest, fmt.Errorf("bad job spec: trailing data %.32q after the spec", rest)
	}
	if err := spec.Validate(); err != nil {
		return spec, nil, http.StatusBadRequest, err
	}
	return spec, body, http.StatusOK, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, _, status, err := ReadJobSpec(w, r)
	if err != nil {
		WriteError(w, status, err)
		return
	}
	job, err := s.Submit(spec)
	if err != nil {
		switch {
		case errors.Is(err, ErrBadMatrix):
			WriteError(w, http.StatusBadRequest, err)
		case errors.Is(err, ErrDraining):
			WriteError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, ErrQueueFull):
			WriteError(w, http.StatusTooManyRequests, err)
		default:
			WriteError(w, http.StatusInternalServerError, err)
		}
		return
	}
	WriteJSON(w, http.StatusAccepted, job.View())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Views())
}

func (s *Server) jobByID(w http.ResponseWriter, r *http.Request) *Job {
	job := s.JobByID(r.PathValue("id"))
	if job == nil {
		WriteError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
	}
	return job
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if job := s.jobByID(w, r); job != nil {
		WriteJSON(w, http.StatusOK, job.View())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job := s.jobByID(w, r)
	if job == nil {
		return
	}
	s.Cancel(job)
	WriteJSON(w, http.StatusOK, job.View())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var snap MetricsSnapshot
	snap.Queue.Depth = len(s.queue)
	snap.Queue.Capacity = cap(s.queue)

	m := s.metrics
	snap.Jobs.Submitted = m.Submitted.Load()
	snap.Jobs.Rejected = m.Rejected.Load()
	snap.Jobs.Done = m.Done.Load()
	snap.Jobs.Failed = m.Failed.Load()
	snap.Jobs.Canceled = m.Canceled.Load()
	s.mu.Lock()
	for _, j := range s.jobs {
		switch j.StateNow() {
		case StateQueued:
			snap.Jobs.Queued++
		case StateRunning:
			snap.Jobs.Running++
		}
	}
	s.mu.Unlock()

	snap.Batching.Enabled = s.cfg.CoalesceMax > 1
	snap.Batching.Max = s.cfg.CoalesceMax
	snap.Batching.WindowMS = float64(s.cfg.CoalesceWindow.Microseconds()) / 1000
	snap.Batching.CoalescedBatches = m.CoalescedBatches.Load()
	snap.Batching.BatchedJobs = m.BatchedJobs.Load()
	snap.Batching.SizeByKind = m.BatchSizes.Snapshot()

	hits, misses, evictions := s.plans.Stats()
	snap.PlanCache.Hits = hits
	snap.PlanCache.Misses = misses
	snap.PlanCache.Evictions = evictions
	snap.PlanCache.Size = s.plans.Len()
	snap.PlanCache.Capacity = s.cfg.PlanCacheSize
	snap.PlanCache.AutotuneSweeps = m.AutotuneSweeps.Load()
	snap.PlanCache.AutotuneTrials = m.AutotuneTrials.Load()
	snap.PlanCache.AutotunePruned = m.AutotunePruned.Load()

	snap.OperatorCache, snap.FactorCache = s.operators.Stats()

	snap.Latency.QueueWait = m.QueueWait.Snapshot()
	snap.Latency.QueueWaitByKind = m.QueueWaitKind.Snapshot()
	snap.Latency.Plan = m.PlanStage.Snapshot()
	snap.Latency.Solve = m.Solve.Snapshot()
	snap.Latency.Total = m.Total.Snapshot()

	snap.Topology.Profile = s.topo.String()
	snap.Topology.Domains = s.topo.DomainCount(0)
	var loc sched.LocalityStats
	s.mu.Lock()
	for _, r := range s.runtimes {
		if lr, ok := r.(rt.LocalityReporter); ok {
			loc.Add(lr.Locality())
		}
	}
	s.mu.Unlock()
	snap.Topology.Locality = loc
	snap.Topology.DomainLocalShare = loc.DomainLocalShare()
	WriteJSON(w, http.StatusOK, snap)
}

// handleHealth reports liveness plus the queue occupancy the scale-out
// router's spill heuristic reads (internal/route probes /healthz, not
// /metrics, to keep the health path cheap).
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	queue := map[string]int{"depth": len(s.queue), "capacity": cap(s.queue)}
	if draining {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining",
			"queue":  queue,
		})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"workers":  s.cfg.Workers,
		"topology": s.topo.String(),
		"queue":    queue,
	})
}
