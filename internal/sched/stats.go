package sched

import "sync"

// LocalityStats is the exported snapshot of the executor's per-worker
// counters, aggregated over workers and (for a live Executor) over every Run
// since construction or the last ResetStats.
//
// Each executed task is counted once by where it came from: the worker's own
// deque (Local, includes inline-chained successors) or another worker's
// (Domain). StealsDomain counts the steal operations behind Domain; the
// tasks a steal-half burst migrates count as Local when they run.
//
// Four more counters say what workers did when they had nothing to run:
// StealFails (a victim's deque probed and found empty, or the race for its
// top lost), Spins (rounds of the bounded busy-wait), Parks (times a worker
// went to sleep once its spin budget ran out) and Wakes (ready sets whose
// producer found somebody parked and woke them). Parks and Wakes near zero
// with Spins high is the fine-grain steady state; Parks tracking the run
// count means iterations are far enough apart for the helpers to sleep.
type LocalityStats struct {
	Local int64 `json:"local"`
	// Domain counts stolen tasks. Its name is from when workers were
	// grouped into domains; it is kept because benchmark/layers.go reads it.
	Domain int64 `json:"domain"`
	// Remote is always 0: the executor is flat. It is kept because
	// benchmark/layers.go reads it.
	Remote int64 `json:"remote"`

	StealsDomain int64 `json:"steals_domain"`

	StealFails int64 `json:"steal_fails"`
	Spins      int64 `json:"spins"`
	Parks      int64 `json:"parks"`
	Wakes      int64 `json:"wakes"`
}

// Tasks returns the total executions counted. Kept because
// benchmark/layers.go reads it.
func (s LocalityStats) Tasks() int64 { return s.Local + s.Domain + s.Remote }

// DomainLocalShare always returns 1: on a flat executor every task runs in
// the one domain there is. It is kept because benchmark/layers.go reads it.
func (s LocalityStats) DomainLocalShare() float64 { return 1 }

// Add accumulates o into s.
func (s *LocalityStats) Add(o LocalityStats) {
	s.Local += o.Local
	s.Domain += o.Domain
	s.Remote += o.Remote
	s.StealsDomain += o.StealsDomain
	s.StealFails += o.StealFails
	s.Spins += o.Spins
	s.Parks += o.Parks
	s.Wakes += o.Wakes
}

// LocalityAccumulator is a runtime backend's lifetime LocalityStats: written
// when a prepared run closes (a few times per job) and read by /metrics, so a
// mutex around one LocalityStats is all it needs.
type LocalityAccumulator struct {
	mu sync.Mutex
	s  LocalityStats
}

// Add folds a snapshot into the accumulator.
func (a *LocalityAccumulator) Add(s LocalityStats) {
	a.mu.Lock()
	a.s.Add(s)
	a.mu.Unlock()
}

// Snapshot returns the accumulated totals.
func (a *LocalityAccumulator) Snapshot() LocalityStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.s
}

// Stats aggregates the per-worker locality counters. Call it between runs
// (after Run returns, or after Close); calling concurrently with a running
// graph would race with the workers' counter writes.
func (e *Executor) Stats() LocalityStats {
	var s LocalityStats
	for i := range e.ws {
		s.Add(e.ws[i].LocalityStats)
	}
	return s
}

// ResetStats zeroes the locality counters. Same concurrency contract as
// Stats: only between runs.
func (e *Executor) ResetStats() {
	for i := range e.ws {
		e.ws[i].LocalityStats = LocalityStats{}
	}
}
