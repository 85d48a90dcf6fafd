package server

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sparsetask/internal/sched"
)

// histBuckets is the number of power-of-two latency buckets: bucket i counts
// observations in [2^i, 2^(i+1)) microseconds, so the range spans 1 µs to
// ~2.3 h — wide enough for both plan lookups and multi-minute solves.
const histBuckets = 33

// Histogram is a fixed-bucket log2 latency histogram. Stdlib-only stand-in
// for a Prometheus histogram; quantiles are estimated from bucket midpoints.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sumNs   int64
	buckets [histBuckets]int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	us := d.Microseconds()
	b := 0
	for us >= 2 && b < histBuckets-1 {
		us >>= 1
		b++
	}
	h.mu.Lock()
	h.count++
	h.sumNs += d.Nanoseconds()
	h.buckets[b]++
	h.mu.Unlock()
}

// HistogramSnapshot is the JSON form served on /metrics.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	SumMS float64 `json:"sum_ms"`
	AvgMS float64 `json:"avg_ms"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
}

// Snapshot freezes the histogram into counts and estimated quantiles.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	count, sum := h.count, h.sumNs
	var b [histBuckets]int64
	copy(b[:], h.buckets[:])
	h.mu.Unlock()

	s := HistogramSnapshot{Count: count, SumMS: float64(sum) / 1e6}
	if count == 0 {
		return s
	}
	s.AvgMS = s.SumMS / float64(count)
	q := func(p float64) float64 {
		target := int64(math.Ceil(p * float64(count)))
		var seen int64
		for i := 0; i < histBuckets; i++ {
			seen += b[i]
			if seen >= target {
				// Geometric midpoint of [2^i, 2^(i+1)) microseconds.
				return math.Sqrt2 * float64(int64(1)<<i) / 1000
			}
		}
		return s.AvgMS
	}
	s.P50MS, s.P90MS, s.P99MS = q(0.50), q(0.90), q(0.99)
	return s
}

// HistogramSet keys Histograms by a small dynamic label — the solver kind —
// for the per-kind latency breakdowns on /metrics.
type HistogramSet struct {
	mu sync.Mutex
	m  map[string]*Histogram
}

// Observe records one duration under the given kind.
func (s *HistogramSet) Observe(kind string, d time.Duration) {
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[string]*Histogram)
	}
	h := s.m[kind]
	if h == nil {
		h = &Histogram{}
		s.m[kind] = h
	}
	s.mu.Unlock()
	h.Observe(d)
}

// Snapshot freezes every kind's histogram. Never nil, so the JSON field is
// {} rather than null before the first observation.
func (s *HistogramSet) Snapshot() map[string]HistogramSnapshot {
	s.mu.Lock()
	hs := make(map[string]*Histogram, len(s.m))
	for k, h := range s.m {
		hs[k] = h
	}
	s.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(hs))
	for k, h := range hs {
		out[k] = h.Snapshot()
	}
	return out
}

// SizeHistogram counts small integer observations — dispatcher batch sizes —
// exactly, rather than in log buckets.
type SizeHistogram struct {
	mu     sync.Mutex
	counts map[int]int64
	count  int64
	sum    int64
	max    int
}

// Observe records one size.
func (h *SizeHistogram) Observe(n int) {
	h.mu.Lock()
	if h.counts == nil {
		h.counts = make(map[int]int64)
	}
	h.counts[n]++
	h.count++
	h.sum += int64(n)
	if n > h.max {
		h.max = n
	}
	h.mu.Unlock()
}

// SizeHistogramSnapshot is the JSON form of a SizeHistogram: exact counts
// keyed by decimal size.
type SizeHistogramSnapshot struct {
	Count int64            `json:"count"`
	Avg   float64          `json:"avg"`
	Max   int              `json:"max"`
	Sizes map[string]int64 `json:"sizes"`
}

// Snapshot freezes the size counts.
func (h *SizeHistogram) Snapshot() SizeHistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := SizeHistogramSnapshot{Count: h.count, Max: h.max, Sizes: make(map[string]int64, len(h.counts))}
	if h.count > 0 {
		s.Avg = float64(h.sum) / float64(h.count)
	}
	for n, c := range h.counts {
		s.Sizes[strconv.Itoa(n)] = c
	}
	return s
}

// SizeHistogramSet keys SizeHistograms by solver kind.
type SizeHistogramSet struct {
	mu sync.Mutex
	m  map[string]*SizeHistogram
}

// Observe records one size under the given kind.
func (s *SizeHistogramSet) Observe(kind string, n int) {
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[string]*SizeHistogram)
	}
	h := s.m[kind]
	if h == nil {
		h = &SizeHistogram{}
		s.m[kind] = h
	}
	s.mu.Unlock()
	h.Observe(n)
}

// Snapshot freezes every kind's size histogram (never nil).
func (s *SizeHistogramSet) Snapshot() map[string]SizeHistogramSnapshot {
	s.mu.Lock()
	hs := make(map[string]*SizeHistogram, len(s.m))
	for k, h := range s.m {
		hs[k] = h
	}
	s.mu.Unlock()
	out := make(map[string]SizeHistogramSnapshot, len(hs))
	for k, h := range hs {
		out[k] = h.Snapshot()
	}
	return out
}

// Metrics aggregates the service counters exported on /metrics. All fields
// are updated lock-free; gauges (queue depth, per-state job counts) are
// computed at snapshot time by the server.
type Metrics struct {
	Submitted atomic.Int64 // jobs accepted into the queue
	Rejected  atomic.Int64 // jobs refused with 429 (queue full)
	Done      atomic.Int64
	Failed    atomic.Int64
	Canceled  atomic.Int64 // explicit DELETE or deadline expiry

	PlanHits       atomic.Int64
	PlanMisses     atomic.Int64
	AutotuneSweeps atomic.Int64 // six-bin block-size searches actually run
	AutotuneTrials atomic.Int64 // candidates those searches evaluated (tiled + graph built)
	AutotunePruned atomic.Int64 // candidates they skipped on their lower bound

	CoalescedBatches atomic.Int64 // dispatcher groups that merged >= 2 jobs
	BatchedJobs      atomic.Int64 // jobs executed via a multi-RHS batched solve

	QueueWait     Histogram        // submit → execution start
	QueueWaitKind HistogramSet     // queue wait broken out by solver kind
	BatchSizes    SizeHistogramSet // dispatcher group sizes by solver kind
	PlanStage     Histogram        // worker-side operator lookup (a suite build + scan) + plan lookup/tune
	Solve         Histogram        // solver execution proper
	Total         Histogram        // submit → terminal state
}

// MetricsSnapshot is the /metrics response body.
type MetricsSnapshot struct {
	Queue struct {
		Depth    int `json:"depth"`
		Capacity int `json:"capacity"`
	} `json:"queue"`
	Jobs struct {
		Submitted int64 `json:"submitted"`
		Rejected  int64 `json:"rejected"`
		Queued    int   `json:"queued"`
		Running   int   `json:"running"`
		Done      int64 `json:"done"`
		Failed    int64 `json:"failed"`
		Canceled  int64 `json:"canceled"`
	} `json:"jobs"`
	PlanCache struct {
		Hits           int64 `json:"hits"`
		Misses         int64 `json:"misses"`
		Evictions      int64 `json:"evictions"`
		Size           int   `json:"size"`
		Capacity       int   `json:"capacity"`
		AutotuneSweeps int64 `json:"autotune_sweeps"`
		// AutotuneTrials and AutotunePruned split the candidates of those
		// sweeps into evaluated and skipped-on-bound; they sum to at most six
		// per sweep.
		AutotuneTrials int64 `json:"autotune_trials"`
		AutotunePruned int64 `json:"autotune_pruned"`
	} `json:"plan_cache"`
	FactorCache   FactorCacheSnapshot   `json:"factor_cache"`
	OperatorCache OperatorCacheSnapshot `json:"operator_cache"`
	Batching      struct {
		// Enabled reports whether the dispatcher may merge jobs
		// (CoalesceMax > 1); Max and WindowMS echo its configuration.
		Enabled  bool    `json:"enabled"`
		Max      int     `json:"max"`
		WindowMS float64 `json:"window_ms"`
		// CoalescedBatches counts dispatcher groups that merged >= 2 jobs;
		// BatchedJobs counts the jobs those groups contained.
		CoalescedBatches int64 `json:"coalesced_batches"`
		BatchedJobs      int64 `json:"batched_jobs"`
		// SizeByKind is the exact dispatcher group-size distribution per
		// solver kind (all ones while coalescing is disabled).
		SizeByKind map[string]SizeHistogramSnapshot `json:"size_by_kind"`
	} `json:"batching"`
	Latency struct {
		QueueWait HistogramSnapshot `json:"queue_wait"`
		// QueueWaitByKind breaks queue wait out per solver kind — the signal
		// that shows whether batchable (cg/pcg) traffic pays for the
		// coalesce window relative to pass-through kinds.
		QueueWaitByKind map[string]HistogramSnapshot `json:"queue_wait_by_kind"`
		Plan            HistogramSnapshot            `json:"plan"`
		Solve           HistogramSnapshot            `json:"solve"`
		Total           HistogramSnapshot            `json:"total"`
	} `json:"latency"`
	// Scheduler aggregates the executor counters over every work-stealing
	// backend runtime the server has built (closed executions only): where
	// tasks were acquired, and what idle workers did.
	Scheduler sched.LocalityStats `json:"scheduler"`
}

// FactorCacheSnapshot is the pcg view of the operator cache: factors live on
// the matrix's operator, so a hit is a pcg job whose operator already held
// them, a miss one that had to factorize, Size the resident operators holding
// factors, and Evictions the evicted operators that held them. Capacity is
// always 0: factors are bounded by the operator cache's byte budget, not by a
// count of their own.
type FactorCacheSnapshot struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
	// Factorizations counts IC(0) numeric factorizations actually run;
	// LevelAnalyses counts triangular level analyses actually run. Both
	// stay flat on repeat traffic for a cached matrix.
	Factorizations int64 `json:"factorizations"`
	LevelAnalyses  int64 `json:"level_analyses"`
}

// OperatorCacheSnapshot reports the identity-keyed LRU of built matrices.
// Builds counts matrices actually generated or parsed — concurrent misses on
// one identity share a build — and stays flat on repeat traffic.
type OperatorCacheSnapshot struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Builds        int64 `json:"builds"`
	Evictions     int64 `json:"evictions"`
	Size          int   `json:"size"` // resident operators
	Bytes         int64 `json:"bytes"`
	CapacityBytes int64 `json:"capacity_bytes"`
}
