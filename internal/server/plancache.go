package server

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// PlanKey identifies a cached execution plan: the matrix's structural
// fingerprint (from sparse.Stats) plus everything else that shifts the
// block-size optimum — solver shape, runtime backend and worker count.
type PlanKey struct {
	Fingerprint uint64
	Solver      string
	Backend     string
	Workers     int
	// SymStorage records whether the job solves from symmetric (SymCSB)
	// storage: the symmetric kernels halve the streamed matrix bytes and
	// change the task shape, so the tuned block size must not be shared
	// with general-storage runs of a structurally identical matrix. (The
	// fingerprint also hashes the symmetry bit; the explicit field keeps
	// the separation even for colliding fingerprints.)
	SymStorage bool
}

// Plan is the memoized outcome of the §5.4 six-bin autotune sweep.
type Plan struct {
	Block      int    // CSB block size in rows
	BlockCount int    // per-dimension tile count the tuner picked
	Bin        string // winning bin label ("32-63", ...), "" for fallbacks
}

// PlanCache is a fixed-capacity LRU of autotuned plans. Repeat traffic for
// the same matrix/solver/backend skips the sweep entirely — the serving
// layer's answer to the paper's observation that block-size choice dominates
// performance but is stable per matrix.
type PlanCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[PlanKey]*list.Element

	hits, misses, evictions atomic.Int64
}

type planEntry struct {
	key  PlanKey
	plan Plan
}

// NewPlanCache returns an LRU holding up to capacity plans (minimum 1).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[PlanKey]*list.Element),
	}
}

// Get returns the cached plan and whether it was present, updating recency
// and hit/miss counters.
func (c *PlanCache) Get(k PlanKey) (Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*planEntry).plan, true
	}
	c.misses.Add(1)
	return Plan{}, false
}

// Put inserts or refreshes a plan, evicting the least recently used entry
// when over capacity.
func (c *PlanCache) Put(k PlanKey, p Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*planEntry).plan = p
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&planEntry{key: k, plan: p})
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.items, el.Value.(*planEntry).key)
		c.evictions.Add(1)
	}
}

// Len reports the current entry count.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats reports cumulative hits, misses, and evictions.
func (c *PlanCache) Stats() (hits, misses, evictions int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}
