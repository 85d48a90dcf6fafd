package server

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"sparsetask/internal/precond"
	"sparsetask/internal/sparse"
)

// operator is one cached matrix and everything derived from its exact
// values: the compacted COO every tiling is cut from, the structural stats
// and fingerprint the plan cache keys on, the tiled storage per block size,
// and — for pcg — the IC(0) factors with their level analyses per block size.
// Factors depend only on the matrix, but the tiling (and with it the level
// DAG's row-block granularity) follows the plan, which varies with solver,
// backend, worker count, and topology — so one operator can hold several
// block sizes, each built once.
//
// Everything handed out is read-only after construction (SymCSB, CSB, and
// IC0 hold no scratch), so concurrent jobs and batches share it without
// copies. An operator evicted while jobs still hold it stays valid for them.
type operator struct {
	cache *OperatorCache
	id    string

	// Written once by load, read-only afterwards.
	loaded sync.Once
	err    error
	coo    *sparse.COO
	stats  sparse.Stats
	fp     uint64

	tileMu  sync.Mutex
	storage map[int]sparse.Matrix // block size → SymCSB or CSB

	factorMu sync.Mutex
	ic       *precond.IC0
	levels   map[int]levelPair // block size → forward/backward analyses

	// Guarded by cache.mu.
	bytes    int64
	factored bool // holds factors: counts toward factor_cache.size
}

type levelPair struct {
	lower, upper *precond.Levels
}

// load builds the matrix and scans it. ToCSR compacts the COO; from then on
// it is only ever read (see COO.Compact), which is what lets storageFor,
// preconditioner, and the autotuner convert it concurrently. The CSR itself
// is dropped: only a first pcg job needs it again.
func (op *operator) load(spec *MatrixSpec) error {
	coo, err := spec.buildMatrix()
	if err != nil {
		return err
	}
	op.stats = sparse.ComputeStats(coo.ToCSR())
	op.fp = op.stats.Fingerprint()
	op.coo = coo
	return nil
}

// storageFor returns the matrix tiled at the given block size, converting on
// first use: symmetric matrices as SymCSB (lower triangle + diagonal, solved
// through the symmetry-exploiting kernels), the rest as CSB.
func (op *operator) storageFor(block int) (sparse.Matrix, error) {
	op.tileMu.Lock()
	defer op.tileMu.Unlock()
	if m, ok := op.storage[block]; ok {
		return m, nil
	}
	var m sparse.Matrix
	if op.stats.Symmetric {
		sym, err := op.coo.ToSymCSB(block)
		if err != nil {
			return nil, fmt.Errorf("symcsb: %w", err)
		}
		m = sym
	} else {
		m = op.coo.ToCSB(block)
	}
	op.storage[block] = m
	op.cache.charge(op, matrixBytes(m), false)
	return m, nil
}

// preconditioner returns the IC(0) factors (Jacobi on breakdown) and their
// level analyses at the given block size, factorizing and analysing on first
// use. source is "computed" for the job that ran the factorization and
// "cache" for every later one; a Jacobi fallback has no triangular structure
// and returns nil levels.
func (op *operator) preconditioner(block int) (m *precond.IC0, lower, upper *precond.Levels, source string, err error) {
	c := op.cache
	op.factorMu.Lock()
	defer op.factorMu.Unlock()
	source = "cache"
	if op.ic == nil {
		c.factorMisses.Add(1)
		c.factorizations.Add(1)
		ic, err := precond.Factorize(op.coo.ToCSR())
		if err != nil {
			return nil, nil, nil, "", fmt.Errorf("ic0: %w", err)
		}
		op.ic, source = ic, "computed"
		c.charge(op, ic0Bytes(ic), true)
	} else {
		c.factorHits.Add(1)
	}
	if op.ic.Kind != precond.KindIC0 {
		return op.ic, nil, nil, source, nil
	}
	lp, ok := op.levels[block]
	if !ok {
		c.levelAnalyses.Add(1)
		lp = levelPair{
			lower: precond.AnalyzeLower(op.ic.L, block),
			upper: precond.AnalyzeUpper(op.ic.U, block),
		}
		if err := errors.Join(lp.lower.Err, lp.upper.Err); err != nil {
			return nil, nil, nil, "", fmt.Errorf("ic0 levels: %w", err)
		}
		op.levels[block] = lp
		c.charge(op, levelsBytes(lp.lower)+levelsBytes(lp.upper), false)
	}
	return op.ic, lp.lower, lp.upper, source, nil
}

// OperatorCache is a byte-bounded LRU of operators keyed by the matrix's
// value identity (MatrixSpec.Identity). It is the serving layer's
// analyse-once step: repeat traffic for a matrix skips generation or parsing,
// the CSR scan, tiling, factorization, and level analysis, and pays only the
// solve. Entries are charged by their slice lengths as they grow; an
// operator larger than the whole budget is used by the job that built it but
// not retained.
type OperatorCache struct {
	mu       sync.Mutex
	capacity int64
	bytes    int64
	factored int        // resident operators holding factors
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	hits, misses, builds, evictions           atomic.Int64
	factorHits, factorMisses, factorEvictions atomic.Int64
	factorizations, levelAnalyses             atomic.Int64
}

// NewOperatorCache returns an LRU holding up to capacityBytes of operators.
func NewOperatorCache(capacityBytes int64) *OperatorCache {
	return &OperatorCache{
		capacity: capacityBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// get returns the operator for a matrix identity, building it on a miss.
// Concurrent misses on one identity share a single build: the first inserts
// the entry and loads it, the rest block on its sync.Once. built reports
// whether this call ran the build. A failed build is not retained.
func (c *OperatorCache) get(id string, spec *MatrixSpec) (op *operator, built bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[id]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		op = el.Value.(*operator)
	} else {
		c.misses.Add(1)
		op = &operator{
			cache:   c,
			id:      id,
			storage: make(map[int]sparse.Matrix),
			levels:  make(map[int]levelPair),
		}
		c.items[id] = c.ll.PushFront(op)
	}
	c.mu.Unlock()

	op.loaded.Do(func() {
		built = true
		c.builds.Add(1)
		op.err = op.load(spec)
	})
	if op.err != nil {
		c.mu.Lock()
		c.remove(op)
		c.mu.Unlock()
		return nil, false, op.err
	}
	if built {
		c.charge(op, cooBytes(op.coo), false)
	}
	return op, built, nil
}

// charge adds delta bytes to a resident operator's account and restores the
// budget: an operator that alone exceeds it is dropped at once — the jobs
// holding it carry on, the rest of the working set stays — and otherwise
// entries go from the cold end until the cache fits. Charges against an
// operator that was already evicted are dropped: its memory is no longer the
// cache's.
func (c *OperatorCache) charge(op *operator, delta int64, factors bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.resident(op) {
		return
	}
	op.bytes += delta
	c.bytes += delta
	if factors && !op.factored {
		op.factored = true
		c.factored++
	}
	if op.bytes > c.capacity {
		c.remove(op)
		c.evictions.Add(1)
	}
	for c.bytes > c.capacity {
		c.remove(c.ll.Back().Value.(*operator))
		c.evictions.Add(1)
	}
}

// resident reports whether op is still the cache's entry for its identity.
// Callers hold c.mu.
func (c *OperatorCache) resident(op *operator) bool {
	el, ok := c.items[op.id]
	return ok && el.Value.(*operator) == op
}

// remove drops op from the cache if it is still resident. Callers hold c.mu.
func (c *OperatorCache) remove(op *operator) {
	if !c.resident(op) {
		return
	}
	c.ll.Remove(c.items[op.id])
	delete(c.items, op.id)
	c.bytes -= op.bytes
	if op.factored {
		c.factored--
		c.factorEvictions.Add(1)
	}
}

// Stats reads the counters into the two /metrics blocks the cache feeds:
// operator_cache, and factor_cache — the pcg view of the same entries.
func (c *OperatorCache) Stats() (OperatorCacheSnapshot, FactorCacheSnapshot) {
	c.mu.Lock()
	size, bytes, factored := c.ll.Len(), c.bytes, c.factored
	c.mu.Unlock()
	return OperatorCacheSnapshot{
			Hits: c.hits.Load(), Misses: c.misses.Load(), Builds: c.builds.Load(), Evictions: c.evictions.Load(),
			Size: size, Bytes: bytes, CapacityBytes: c.capacity,
		}, FactorCacheSnapshot{
			Hits: c.factorHits.Load(), Misses: c.factorMisses.Load(), Evictions: c.factorEvictions.Load(),
			Size: factored, Factorizations: c.factorizations.Load(), LevelAnalyses: c.levelAnalyses.Load(),
		}
}

// Entry sizes, from slice lengths: 4 bytes per int32 index, 8 per value or
// offset. Struct headers are noise next to the arrays and are not counted.

func cooBytes(a *sparse.COO) int64 { return 16 * int64(len(a.V)) }

func csrBytes(a *sparse.CSR) int64 {
	if a == nil {
		return 0
	}
	return 8*int64(len(a.RowPtr)) + 12*int64(len(a.V))
}

func matrixBytes(m sparse.Matrix) int64 {
	switch a := m.(type) {
	case *sparse.SymCSB:
		return 8*int64(len(a.BlkPtr)) + 16*int64(len(a.V)) +
			4*int64(len(a.Sched.Wave)) + int64(len(a.Sched.TransGroups))
	case *sparse.CSB:
		return 8*int64(len(a.BlkPtr)) + 16*int64(len(a.V))
	}
	return 0
}

func ic0Bytes(m *precond.IC0) int64 {
	return csrBytes(m.L) + csrBytes(m.U) + 8*int64(len(m.DiagInv))
}

// levelsBytes charges a level analysis with the substitution layout it
// carries (BlockDeps are the layout's Deps, counted once).
func levelsBytes(lv *precond.Levels) int64 {
	t := lv.Tri
	n := 24*int64(len(lv.BlockDeps)) + 4*int64(len(lv.LevelOf)) + 8*int64(len(lv.Widths)) +
		4*int64(len(t.Row)) + 8*int64(len(t.Ptr)) + 12*int64(len(t.Val)) + 8*int64(len(t.Diag))
	for _, deps := range lv.BlockDeps {
		n += 4 * int64(len(deps))
	}
	return n
}
