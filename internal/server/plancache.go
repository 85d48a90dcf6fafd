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

// PlanCache is the LRU of autotuned plans. Repeat traffic for the same
// matrix/solver/backend skips the sweep entirely — the serving layer's answer
// to the paper's observation that block-size choice dominates performance but
// is stable per matrix.
type PlanCache = LRU[PlanKey, Plan]

// NewPlanCache returns an LRU holding up to capacity plans (minimum 1).
func NewPlanCache(capacity int) *PlanCache { return NewLRU[PlanKey, Plan](capacity) }

// LRU is a fixed-capacity, least-recently-used map, safe for concurrent use,
// that counts its hits, misses and evictions.
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[K]*list.Element

	hits, misses, evictions atomic.Int64
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// NewLRU returns an LRU holding up to capacity entries (minimum 1).
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[K, V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[K]*list.Element),
	}
}

// Get returns the cached value and whether it was present, updating recency
// and hit/miss counters.
func (c *LRU[K, V]) Get(k K) (V, bool) {
	v, ok := c.lookup(k)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Load returns the cached value, or builds it outside the lock on a miss so
// concurrent misses don't serialize, and caches it. build must be pure: a
// racing double build is idempotent. A failed build caches nothing and counts
// no miss.
func (c *LRU[K, V]) Load(k K, build func() (V, error)) (V, error) {
	if v, ok := c.lookup(k); ok {
		c.hits.Add(1)
		return v, nil
	}
	v, err := build()
	if err != nil {
		return v, err
	}
	c.misses.Add(1)
	c.Put(k, v)
	return v, nil
}

func (c *LRU[K, V]) lookup(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put inserts or refreshes a value, evicting the least recently used entry
// when over capacity.
func (c *LRU[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*lruEntry[K, V]).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&lruEntry[K, V]{key: k, val: v})
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.items, el.Value.(*lruEntry[K, V]).key)
		c.evictions.Add(1)
	}
}

// Len reports the current entry count.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats reports cumulative hits, misses, and evictions.
func (c *LRU[K, V]) Stats() (hits, misses, evictions int64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}
