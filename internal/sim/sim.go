// Package sim is a deterministic discrete-event simulator that executes a
// task-dependency graph on a modeled machine (package machine) with a
// modeled memory system (package cachesim) under one of four scheduling
// policies mirroring the runtime backends. It is how the paper's figures are
// regenerated at paper scale — 28-core Broadwell and 128-core EPYC — on any
// development host.
//
// Task cost model: a task's execution time is
//
//	max(flops/FlopsPerNs, memoryNs) + dispatch overhead
//
// where memoryNs aggregates the simulated cache-hierarchy latencies of the
// task's data regions (divided by the machine's memory-level parallelism)
// and dispatch overhead is a per-policy constant — the scheduling cost that
// makes over-decomposition expensive (paper §5.4). Cache and NUMA page state
// persist across iterations, as on real hardware.
package sim

import (
	"fmt"

	"sparsetask/internal/cachesim"
	"sparsetask/internal/graph"
	"sparsetask/internal/machine"
	"sparsetask/internal/program"
	"sparsetask/internal/trace"
)

// Result reports one simulated execution (one TDG pass).
type Result struct {
	MakespanNs int64
	Counters   cachesim.Counters
	// BusyNs is the total task execution time summed over cores.
	BusyNs int64
	// Tasks executed (sanity: must equal len(g.Tasks)).
	Tasks int
}

// Sim holds machine state persisting across iterations: the cache hierarchy,
// NUMA page map, region address layout, and per-domain memory-controller
// queues.
type Sim struct {
	M machine.Model
	H *cachesim.Hierarchy
	L *cachesim.Layout
	// Now is the global virtual clock in ns, advancing across Run calls so
	// multi-iteration traces line up end to end.
	Now int64
	// ctlFree[d] is the time domain d's memory controller finishes its
	// queued line transfers; fetches from a domain queue behind it.
	ctlFree []int64
}

// New creates a simulator for a machine. firstTouch selects the NUMA page
// placement policy applied to pages on their first access.
func New(m machine.Model, firstTouch bool) *Sim {
	return &Sim{
		M: m, H: cachesim.New(m, firstTouch), L: cachesim.NewLayout(),
		ctlFree: make([]int64, m.NUMADomains),
	}
}

// PlaceFirstTouch pre-places every data region at the NUMA domain of its
// *own* partition's home core: a static parallel initialization loop over
// partitions assigns partition p to worker p·W/NP, so the pages of vector
// partition p and of matrix tile row p land in that worker's domain. This is
// the paper's first-touch optimization (vectors and the sparse matrix
// initialized in parallel, §5.1).
func (s *Sim) PlaceFirstTouch(g *graph.TDG, workers int) {
	if workers <= 0 || workers > s.M.Cores {
		workers = s.M.Cores
	}
	p := g.Prog
	np := p.NP
	domOf := func(part int) int {
		return s.M.DomainOf(PartitionCore(part, np, workers))
	}
	for _, o := range p.Ops {
		switch o.Kind {
		case program.OpVec:
			for part := 0; part < np; part++ {
				bytes := int64(p.PartRows(part)) * int64(o.Cols) * 8
				s.H.Touch(domOf(part), s.L.Base(graph.VecRegion(o.ID, part), bytes), bytes)
			}
		case program.OpSparse:
			a, ok := g.Mats[o.ID]
			if !ok {
				continue
			}
			for bi := 0; bi < a.NBR; bi++ {
				for bj := 0; bj < a.NBC; bj++ {
					nnz := a.BlockNNZ(bi, bj)
					if nnz == 0 {
						continue
					}
					bytes := int64(nnz) * 16
					s.H.Touch(domOf(bi), s.L.Base(graph.TileRegion(o.ID, bi, bj, a.NBC), bytes), bytes)
				}
			}
		case program.OpSymSparse:
			// Symmetric storage: only the lower triangle plus diagonal exists;
			// each stored tile lands in its row band's domain, like the
			// general case.
			a, ok := g.Syms[o.ID]
			if !ok {
				continue
			}
			for bi := 0; bi < a.NBR; bi++ {
				for bj := 0; bj <= bi; bj++ {
					nnz := a.TileNNZ(bi, bj)
					if nnz == 0 {
						continue
					}
					bytes := int64(nnz) * 16
					s.H.Touch(domOf(bi), s.L.Base(graph.TileRegion(o.ID, bi, bj, a.NBR), bytes), bytes)
				}
			}
		}
	}
	// Partial buffers and reduce-mode SpMM buffers also follow their
	// partition; walk the tasks once to find their regions.
	for i := range g.Tasks {
		t := &g.Tasks[i]
		if t.P < 0 {
			continue
		}
		for _, r := range t.Writes {
			s.H.Touch(domOf(int(t.P)), s.L.Base(r.Region, r.Bytes), r.Bytes)
		}
	}
}

// PartitionCore returns the home core of partition p under the static
// partition→worker map used by first-touch placement and root dispatch.
func PartitionCore(p, np, workers int) int {
	c := int(int64(p) * int64(workers) / int64(np))
	if c >= workers {
		c = workers - 1
	}
	if c < 0 {
		c = 0
	}
	return c
}

// PlaceSerial places every region in domain 0, modeling serial
// initialization (the pathology first-touch fixes, Fig. 5).
func (s *Sim) PlaceSerial(g *graph.TDG) {
	for i := range g.Tasks {
		t := &g.Tasks[i]
		for _, r := range t.Reads {
			s.H.Touch(0, s.L.Base(r.Region, r.Bytes), r.Bytes)
		}
		for _, r := range t.Writes {
			s.H.Touch(0, s.L.Base(r.Region, r.Bytes), r.Bytes)
		}
	}
}

// scratcher is an optional Policy extension: kernels executed through an
// opaque BLAS library (the BSP baselines) touch a per-core packing workspace
// proportional to their inputs, polluting the private caches. Task-granular
// runtimes call lean kernels without packing.
type scratcher interface {
	ScratchBytes(k graph.TaskKind, readBytes int64) int64
}

// taskCost simulates the task's memory traffic on the given core starting at
// virtual time now and returns its execution time in ns. Three terms:
// latency of the miss chain (overlapped by MLP), bandwidth queueing at the
// owning domains' memory controllers, and the flop time; the task takes the
// max of the three.
func (s *Sim) taskCost(g *graph.TDG, t *graph.Task, core int, now int64, pol Policy, ctr *cachesim.Counters) float64 {
	var c cachesim.Counters
	var readBytes int64
	for _, r := range t.Reads {
		s.H.Access(core, s.L.Base(r.Region, r.Bytes), r.Bytes, false, &c)
		readBytes += r.Bytes
	}
	if sc, ok := pol.(scratcher); ok {
		if b := sc.ScratchBytes(t.Kind, readBytes); b > 0 {
			// Pack pass: inputs are re-read into the per-core workspace.
			for _, r := range t.Reads {
				s.H.Access(core, s.L.Base(r.Region, r.Bytes), r.Bytes, false, &c)
			}
			s.H.Access(core, s.L.Base(graph.ScratchRegion(core), b), b, true, &c)
		}
	}
	for _, r := range t.Writes {
		s.H.Access(core, s.L.Base(r.Region, r.Bytes), r.Bytes, true, &c)
	}
	ctr.Add(c)
	m := s.M
	latency := float64(c.L2Hit)*m.L2.LatencyNs +
		float64(c.L3Hit)*m.L3.LatencyNs +
		float64(c.L3Miss-c.RemoteLines)*m.MemLatencyNs +
		float64(c.RemoteLines)*(m.MemLatencyNs+m.RemoteExtraNs)
	memNs := latency / m.MLP
	// Bandwidth: queue this task's line fetches on the owning domains'
	// controllers. A domain serving the whole machine's traffic (serial
	// initialization) becomes the bottleneck.
	var bwNs float64
	for d := 0; d < m.NUMADomains && d < cachesim.MaxDomains; d++ {
		lines := c.DomLines[d]
		if lines == 0 {
			continue
		}
		start := s.ctlFree[d]
		if start < now {
			start = now
		}
		finish := start + int64(float64(lines)*m.BWNsPerLine)
		s.ctlFree[d] = finish
		if w := float64(finish - now); w > bwNs {
			bwNs = w
		}
	}
	if bwNs > memNs {
		memNs = bwNs
	}
	flopNs := float64(t.Flops) / m.FlopsPerNs
	if memNs > flopNs {
		return memNs
	}
	return flopNs
}

// Run simulates one execution of g under the policy and returns makespan and
// aggregated counters. The recorder, when non-nil, receives one event per
// task with virtual timestamps (its worker dimension is the core id).
func (s *Sim) Run(g *graph.TDG, pol Policy, rec *trace.Recorder) (Result, error) {
	n := len(g.Tasks)
	res := Result{}
	if n == 0 {
		return res, nil
	}
	workers := pol.Workers()
	if workers <= 0 || workers > s.M.Cores {
		return res, fmt.Errorf("sim: policy %s wants %d workers on a %d-core machine", pol.Name(), workers, s.M.Cores)
	}
	pol.Reset(g, s.Now)

	indeg := make([]int32, n)
	for i := range g.Tasks {
		indeg[i] = int32(len(g.Tasks[i].Deps))
		if indeg[i] == 0 {
			pol.Ready(int32(i), -1, s.Now)
		}
	}

	coreFree := make([]int64, workers)
	start := s.Now
	for i := range coreFree {
		coreFree[i] = start
	}
	type running struct {
		end  int64
		task int32
		core int
	}
	var runQ []running // small enough that linear scans beat heap overhead? keep heap-free: find-min scan
	completed := 0
	now := start

	findMinRun := func() int {
		best := -1
		for i := range runQ {
			if best < 0 || runQ[i].end < runQ[best].end ||
				(runQ[i].end == runQ[best].end && runQ[i].task < runQ[best].task) {
				best = i
			}
		}
		return best
	}

	for completed < n {
		// Dispatch: give every idle core a chance, in core order.
		dispatched := false
		for c := 0; c < workers; c++ {
			if coreFree[c] > now {
				continue
			}
			t, ok := pol.Pick(c, now)
			if !ok {
				continue
			}
			task := &g.Tasks[t]
			dur := s.taskCost(g, task, c, now, pol, &res.Counters) + pol.OverheadNs()
			end := now + int64(dur)
			if end == now {
				end = now + 1 // enforce progress
			}
			if rec != nil {
				rec.Record(c, trace.Event{
					Task: t, Call: task.Call,
					Kernel: g.Prog.Calls[task.Call].Name,
					Start:  now, End: end,
				})
			}
			res.BusyNs += end - now
			coreFree[c] = end
			runQ = append(runQ, running{end, t, c})
			dispatched = true
		}
		if dispatched {
			continue
		}
		// Nothing dispatchable at `now`: advance to the next event —
		// earliest completion, earliest core-free, or a policy event
		// (Regent issue times).
		next := int64(-1)
		if i := findMinRun(); i >= 0 {
			next = runQ[i].end
		}
		if pe := pol.NextEventAfter(now); pe > now && (next < 0 || pe < next) {
			next = pe
		}
		if next < 0 || next <= now {
			return res, fmt.Errorf("sim: deadlock at t=%d with %d/%d tasks done under %s", now, completed, n, pol.Name())
		}
		now = next
		// Retire all runs ending at or before now, in (end, task) order.
		for {
			i := findMinRun()
			if i < 0 || runQ[i].end > now {
				break
			}
			r := runQ[i]
			runQ[i] = runQ[len(runQ)-1]
			runQ = runQ[:len(runQ)-1]
			completed++
			pol.Done(r.task, r.core, now)
			for _, succ := range g.Tasks[r.task].Succs {
				indeg[succ]--
				if indeg[succ] == 0 {
					pol.Ready(succ, r.core, r.end)
				}
			}
		}
	}
	// Makespan: latest core-free time.
	endT := start
	for _, f := range coreFree {
		if f > endT {
			endT = f
		}
	}
	res.MakespanNs = endT - start
	res.Tasks = n
	s.Now = endT
	return res, nil
}

// Measure prices g under the policy the way every experiment does: one
// unrecorded warm-up Run (cold caches, like the paper's excluded setup), then
// iters recorded Runs. It returns the mean makespan in ns and the counters
// summed over the measured runs. Placement is the caller's, done beforehand.
func (s *Sim) Measure(g *graph.TDG, pol Policy, iters int, rec *trace.Recorder) (float64, cachesim.Counters, error) {
	var ctr cachesim.Counters
	if iters < 1 {
		return 0, ctr, fmt.Errorf("sim: Measure needs at least one iteration, got %d", iters)
	}
	if _, err := s.Run(g, pol, nil); err != nil {
		return 0, ctr, err
	}
	var total int64
	for i := 0; i < iters; i++ {
		r, err := s.Run(g, pol, rec)
		if err != nil {
			return 0, cachesim.Counters{}, err
		}
		total += r.MakespanNs
		ctr.Add(r.Counters)
	}
	return float64(total) / float64(iters), ctr, nil
}
