// Package cachesim simulates a multi-level set-associative cache hierarchy
// with LRU replacement plus a first-touch NUMA page map. It stands in for the
// `perf stat` hardware counters the paper uses: the simulator is fed the
// block-granular access stream of each task (region base + footprint) and
// reports per-level hit/miss counts and local/remote memory line counts.
//
// Absolute miss counts are model artifacts; what the experiments rely on —
// and what this model captures — is how miss counts *change* with the task
// schedule (reuse distance) and data placement, which is a property of the
// access stream, not of micro-architectural detail.
package cachesim

import (
	"sparsetask/internal/machine"
)

// MaxDomains bounds the NUMA domain count the counters track (EPYC has 8).
const MaxDomains = 8

// Counters aggregates simulated memory-system events.
type Counters struct {
	L1Hit, L1Miss  int64
	L2Hit, L2Miss  int64
	L3Hit, L3Miss  int64 // each L3 miss is one line fetched from memory
	RemoteLines    int64 // of the L3Miss lines, those a remote NUMA domain served
	WritebackLines int64 // dirty lines written back to memory on LLC eviction
	// DomLines counts memory lines served by each owning domain's
	// controller — the input to the bandwidth-contention model (serial
	// initialization funnels everything through domain 0).
	DomLines [MaxDomains]int64
}

// Add accumulates other into c.
func (c *Counters) Add(o Counters) {
	c.L1Hit += o.L1Hit
	c.L1Miss += o.L1Miss
	c.L2Hit += o.L2Hit
	c.L2Miss += o.L2Miss
	c.L3Hit += o.L3Hit
	c.L3Miss += o.L3Miss
	c.RemoteLines += o.RemoteLines
	c.WritebackLines += o.WritebackLines
	for d := range c.DomLines {
		c.DomLines[d] += o.DomLines[d]
	}
}

// cache is one set-associative LRU cache instance.
type cache struct {
	sets      int64
	assoc     int
	lineShift uint
	// tags[set*assoc+way]; 0 means empty. LRU order: way 0 is MRU.
	tags []uint64
	// dirty mirrors tags: the line has been written since it was filled.
	dirty []bool
}

func newCache(c machine.Cache) *cache {
	lineShift := uint(0)
	for 1<<lineShift < c.LineBytes {
		lineShift++
	}
	sets := c.SizeBytes / (c.LineBytes * int64(c.Assoc))
	if sets < 1 {
		sets = 1
	}
	// Round down to a power of two for cheap indexing.
	p := int64(1)
	for p*2 <= sets {
		p *= 2
	}
	return &cache{
		sets: p, assoc: c.Assoc, lineShift: lineShift,
		tags:  make([]uint64, p*int64(c.Assoc)),
		dirty: make([]bool, p*int64(c.Assoc)),
	}
}

// access returns hit status, inserting the line either way and marking it
// dirty when write is set. On a miss that evicts a dirty line, the evicted
// line (its id, not tag) is returned for writeback accounting.
func (c *cache) access(line uint64, write bool) (hit bool, evicted uint64, evictedDirty bool) {
	set := int64(line) & (c.sets - 1)
	base := set * int64(c.assoc)
	tag := line + 1 // +1 so 0 stays "empty"
	for w := 0; w < c.assoc; w++ {
		if c.tags[base+int64(w)] == tag {
			// Move to front (MRU), carrying the dirty bit.
			d := c.dirty[base+int64(w)] || write
			copy(c.tags[base+1:base+int64(w)+1], c.tags[base:base+int64(w)])
			copy(c.dirty[base+1:base+int64(w)+1], c.dirty[base:base+int64(w)])
			c.tags[base] = tag
			c.dirty[base] = d
			return true, 0, false
		}
	}
	// Miss: evict LRU (last way).
	last := base + int64(c.assoc) - 1
	if c.tags[last] != 0 && c.dirty[last] {
		evicted = c.tags[last] - 1
		evictedDirty = true
	}
	copy(c.tags[base+1:base+int64(c.assoc)], c.tags[base:last])
	copy(c.dirty[base+1:base+int64(c.assoc)], c.dirty[base:last])
	c.tags[base] = tag
	c.dirty[base] = write
	return false, evicted, evictedDirty
}

// Hierarchy is the full simulated memory system of one machine.
type Hierarchy struct {
	M machine.Model
	// FirstTouch enables first-touch page placement; when disabled, every
	// page lives in domain 0 (the serial-initialization pathology of the
	// paper's Fig. 5).
	FirstTouch bool

	l1, l2 []*cache // per core
	l3     []*cache // per L3 group
	l3Of   []int    // core -> l3 group

	lineBytes int64
	pageShift uint
	pageDom   map[uint64]int8
}

// New builds the hierarchy for a machine model.
func New(m machine.Model, firstTouch bool) *Hierarchy {
	h := &Hierarchy{
		M:          m,
		FirstTouch: firstTouch,
		l1:         make([]*cache, m.Cores),
		l2:         make([]*cache, m.Cores),
		l3Of:       make([]int, m.Cores),
		lineBytes:  m.L1.LineBytes,
		pageShift:  12, // 4 KiB pages
		pageDom:    make(map[uint64]int8),
	}
	groups := (m.Cores + m.L3.SharedBy - 1) / m.L3.SharedBy
	h.l3 = make([]*cache, groups)
	for c := 0; c < m.Cores; c++ {
		h.l1[c] = newCache(m.L1)
		h.l2[c] = newCache(m.L2)
		h.l3Of[c] = c / m.L3.SharedBy
	}
	for g := range h.l3 {
		h.l3[g] = newCache(m.L3)
	}
	return h
}

// Access simulates core touching [base, base+bytes) once, streaming by
// cache lines, and accumulates into ctr. Writes allocate like reads and mark
// lines dirty; dirty lines evicted from the LLC are charged as writebacks to
// their owning domain's controller.
func (h *Hierarchy) Access(core int, base uint64, bytes int64, write bool, ctr *Counters) {
	if bytes <= 0 {
		return
	}
	dom := h.M.DomainOf(core)
	first := base / uint64(h.lineBytes)
	last := (base + uint64(bytes) - 1) / uint64(h.lineBytes)
	l1 := h.l1[core]
	l2 := h.l2[core]
	l3 := h.l3[h.l3Of[core]]
	for line := first; line <= last; line++ {
		if hit, _, _ := l1.access(line, write); hit {
			ctr.L1Hit++
			continue
		}
		ctr.L1Miss++
		if hit, _, _ := l2.access(line, write); hit {
			ctr.L2Hit++
			continue
		}
		ctr.L2Miss++
		hit, evicted, evictedDirty := l3.access(line, write)
		if evictedDirty {
			ctr.WritebackLines++
			h.chargeDomain(evicted, ctr)
		}
		if hit {
			ctr.L3Hit++
			continue
		}
		ctr.L3Miss++
		// NUMA: which domain owns the page?
		page := line >> (h.pageShift - uint(lineShift(h.lineBytes)))
		owner, ok := h.pageDom[page]
		if !ok {
			if h.FirstTouch {
				owner = int8(dom)
			} else {
				owner = 0
			}
			h.pageDom[page] = owner
		}
		if int(owner) != dom {
			ctr.RemoteLines++
		}
		if int(owner) < MaxDomains {
			ctr.DomLines[owner]++
		}
	}
}

// chargeDomain accounts one written-back line to its owning domain's
// memory controller.
func (h *Hierarchy) chargeDomain(line uint64, ctr *Counters) {
	page := line >> (h.pageShift - uint(lineShift(h.lineBytes)))
	owner, ok := h.pageDom[page]
	if !ok {
		owner = 0
	}
	if int(owner) < MaxDomains {
		ctr.DomLines[owner]++
	}
}

// Touch places the pages of [base, base+bytes) in the given domain without
// cache effects: models initialization (first touch happens during setup,
// e.g. parallel initialization of vectors and matrix).
func (h *Hierarchy) Touch(domain int, base uint64, bytes int64) {
	if bytes <= 0 {
		return
	}
	firstPage := base >> h.pageShift
	lastPage := (base + uint64(bytes) - 1) >> h.pageShift
	for p := firstPage; p <= lastPage; p++ {
		if _, ok := h.pageDom[p]; !ok {
			h.pageDom[p] = int8(domain)
		}
	}
}

func lineShift(lineBytes int64) int {
	s := 0
	for int64(1)<<s < lineBytes {
		s++
	}
	return s
}

// Layout assigns disjoint virtual base addresses to named regions: a bump
// allocator aligned to pages so regions never share lines or pages.
type Layout struct {
	next  uint64
	bases map[uint64]uint64
}

// NewLayout returns an empty layout starting at a non-zero base.
func NewLayout() *Layout {
	return &Layout{next: 1 << 20, bases: make(map[uint64]uint64)}
}

// Base returns the base address for a region id, allocating bytes (rounded
// to a page) on first use.
func (l *Layout) Base(region uint64, bytes int64) uint64 {
	if b, ok := l.bases[region]; ok {
		return b
	}
	b := l.next
	l.bases[region] = b
	sz := (uint64(bytes) + 4095) &^ 4095
	if sz == 0 {
		sz = 4096
	}
	l.next += sz
	return b
}
