package sched

import "sync/atomic"

// LocalityStats is the exported snapshot of the executor's per-worker
// locality counters, aggregated over workers and (for a live Executor) over
// every Run since construction or the last ResetStats.
//
// Two views of the same execution are counted:
//
//   - Acquisition tier — where each executed task came from: the worker's own
//     deque (Local, includes inline-chained successors), its own domain
//     (Domain: the domain inbox or a same-domain victim's deque), or another
//     domain (Remote). StealsDomain/StealsRemote count the steal operations
//     behind the Domain/Remote tiers.
//   - Placement outcome — whether the task executed in its preferred domain:
//     AffinityLocal (executed where its affinity key maps), AffinityRemote
//     (executed elsewhere: work conservation won over placement), and
//     AffinityNone (tasks with no affinity key, e.g. global reductions).
//
// Four more counters say what workers did when they had nothing to run:
// StealFails (a victim's deque probed and found empty, or the race for its
// top lost), Spins (rounds of the bounded busy-wait), Parks (times a worker
// went to sleep once its spin budget ran out) and Wakes (ready sets whose
// producer found somebody parked and woke them). Parks and Wakes near zero
// with Spins high is the fine-grain steady state; Parks tracking the run
// count means iterations are far enough apart for the helpers to sleep.
type LocalityStats struct {
	Local  int64 `json:"local"`
	Domain int64 `json:"domain"`
	Remote int64 `json:"remote"`

	StealsDomain int64 `json:"steals_domain"`
	StealsRemote int64 `json:"steals_remote"`

	AffinityLocal  int64 `json:"affinity_local"`
	AffinityRemote int64 `json:"affinity_remote"`
	AffinityNone   int64 `json:"affinity_none"`

	StealFails int64 `json:"steal_fails"`
	Spins      int64 `json:"spins"`
	Parks      int64 `json:"parks"`
	Wakes      int64 `json:"wakes"`
}

// Tasks returns the total executions counted.
func (s LocalityStats) Tasks() int64 { return s.Local + s.Domain + s.Remote }

// DomainLocalShare is the fraction of affinity-carrying tasks that executed
// in their preferred domain. Returns 1 when no task carried affinity (flat
// execution is vacuously local).
func (s LocalityStats) DomainLocalShare() float64 {
	n := s.AffinityLocal + s.AffinityRemote
	if n == 0 {
		return 1
	}
	return float64(s.AffinityLocal) / float64(n)
}

// Add accumulates o into s.
func (s *LocalityStats) Add(o LocalityStats) {
	s.Local += o.Local
	s.Domain += o.Domain
	s.Remote += o.Remote
	s.StealsDomain += o.StealsDomain
	s.StealsRemote += o.StealsRemote
	s.AffinityLocal += o.AffinityLocal
	s.AffinityRemote += o.AffinityRemote
	s.AffinityNone += o.AffinityNone
	s.StealFails += o.StealFails
	s.Spins += o.Spins
	s.Parks += o.Parks
	s.Wakes += o.Wakes
}

// LocalityAccumulator aggregates LocalityStats across executors with atomic
// adds — the lifetime counter a runtime backend keeps as its prepared runs
// close, safe to snapshot concurrently (e.g. from a /metrics handler).
type LocalityAccumulator struct {
	local, domain, remote    atomic.Int64
	stealsDom, stealsRem     atomic.Int64
	affLocal, affRem, affNon atomic.Int64
	stealFails, spins        atomic.Int64
	parks, wakes             atomic.Int64
}

// Add folds a snapshot into the accumulator.
func (a *LocalityAccumulator) Add(s LocalityStats) {
	a.local.Add(s.Local)
	a.domain.Add(s.Domain)
	a.remote.Add(s.Remote)
	a.stealsDom.Add(s.StealsDomain)
	a.stealsRem.Add(s.StealsRemote)
	a.affLocal.Add(s.AffinityLocal)
	a.affRem.Add(s.AffinityRemote)
	a.affNon.Add(s.AffinityNone)
	a.stealFails.Add(s.StealFails)
	a.spins.Add(s.Spins)
	a.parks.Add(s.Parks)
	a.wakes.Add(s.Wakes)
}

// Snapshot returns the accumulated totals.
func (a *LocalityAccumulator) Snapshot() LocalityStats {
	return LocalityStats{
		Local:          a.local.Load(),
		Domain:         a.domain.Load(),
		Remote:         a.remote.Load(),
		StealsDomain:   a.stealsDom.Load(),
		StealsRemote:   a.stealsRem.Load(),
		AffinityLocal:  a.affLocal.Load(),
		AffinityRemote: a.affRem.Load(),
		AffinityNone:   a.affNon.Load(),
		StealFails:     a.stealFails.Load(),
		Spins:          a.spins.Load(),
		Parks:          a.parks.Load(),
		Wakes:          a.wakes.Load(),
	}
}

// workerStats is the counter half of a worker's private block (see worker,
// which pads it): cumulative over runs until ResetStats.
type workerStats struct {
	local, domain, remote    int64
	stealsDom, stealsRem     int64
	affLocal, affRem, affNon int64
	stealFails, spins        int64
	parks, wakes             int64
}

// Stats aggregates the per-worker locality counters. Call it between runs
// (after Run returns, or after Close); calling concurrently with a running
// graph would race with the workers' counter writes.
func (e *Executor) Stats() LocalityStats {
	var s LocalityStats
	for i := range e.ws {
		w := &e.ws[i].workerStats
		s.Local += w.local
		s.Domain += w.domain
		s.Remote += w.remote
		s.StealsDomain += w.stealsDom
		s.StealsRemote += w.stealsRem
		s.AffinityLocal += w.affLocal
		s.AffinityRemote += w.affRem
		s.AffinityNone += w.affNon
		s.StealFails += w.stealFails
		s.Spins += w.spins
		s.Parks += w.parks
		s.Wakes += w.wakes
	}
	return s
}

// ResetStats zeroes the locality counters. Same concurrency contract as
// Stats: only between runs.
func (e *Executor) ResetStats() {
	for i := range e.ws {
		e.ws[i].workerStats = workerStats{}
	}
}
