package sched

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFlatStealStress drives the steal paths (random victim order,
// steal-half bursts, parking and waking) hard under the race detector:
// random DAGs, both disciplines, repeated runs on one executor of eight
// workers, with exactly-once verification.
func TestFlatStealStress(t *testing.T) {
	for _, disc := range []Discipline{LIFO, FIFO} {
		const n = 800
		indeg, succs, roots := randomDAG(rand.New(rand.NewSource(7+int64(disc))), n)
		ran := make([]atomic.Int32, n)
		e := NewExecutor(n, indeg, func(i int32) []int32 { return succs[i] }, roots,
			func(w int, task int32) { ran[task].Add(1) },
			Options{Workers: 8, Discipline: disc})
		for run := 0; run < 10; run++ {
			for i := range ran {
				ran[i].Store(0)
			}
			if err := e.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			for i := range ran {
				if c := ran[i].Load(); c != 1 {
					t.Fatalf("disc=%v run=%d: task %d ran %d times", disc, run, i, c)
				}
			}
		}
		s := e.Stats()
		if got, want := s.Tasks(), int64(10*n); got != want {
			t.Fatalf("disc=%v: stats count %d, want %d", disc, got, want)
		}
		if s.Remote != 0 {
			t.Fatalf("disc=%v: flat executor counted %d remote tasks", disc, s.Remote)
		}
		e.Close()
	}
}

// TestStatsResetAndFlatMode checks the counter plumbing: a flat execution
// counts every task as local or stolen, never remote, and ResetStats zeroes.
func TestStatsResetAndFlatMode(t *testing.T) {
	n, indeg, succs, roots := chainGraph(6, 20)
	e := NewExecutor(n, indeg, func(i int32) []int32 { return succs[i] }, roots,
		func(w int, task int32) {}, Options{Workers: 4})
	defer e.Close()
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Tasks() != int64(n) {
		t.Fatalf("tasks = %d, want %d", s.Tasks(), n)
	}
	if s.Remote != 0 || s.Local+s.Domain != int64(n) {
		t.Fatalf("flat run counted remote tasks: %+v", s)
	}
	if s.DomainLocalShare() != 1 {
		t.Fatalf("flat DomainLocalShare = %v, want 1", s.DomainLocalShare())
	}
	e.ResetStats()
	if s := e.Stats(); s.Tasks() != 0 {
		t.Fatalf("after reset: %+v", s)
	}

	var acc LocalityAccumulator
	acc.Add(LocalityStats{Local: 3, Domain: 2, StealsDomain: 1})
	acc.Add(LocalityStats{Domain: 1, StealsDomain: 1, StealFails: 4})
	got := acc.Snapshot()
	want := LocalityStats{Local: 3, Domain: 3, StealsDomain: 2, StealFails: 4}
	if got != want {
		t.Fatalf("accumulator snapshot = %+v, want %+v", got, want)
	}
}

// scaledStats is k times a fixed eight-counter step: field i holds i·k.
func scaledStats(k int64) LocalityStats {
	return LocalityStats{k, 2 * k, 3 * k, 4 * k, 5 * k, 6 * k, 7 * k, 8 * k}
}

// TestLocalityAccumulatorConcurrent: backends fold closing runs into their
// accumulator while /metrics snapshots it. Under -race, concurrent Add and
// Snapshot must end at exact totals, and every snapshot must be a whole
// number of adds — no counter ahead of another.
func TestLocalityAccumulatorConcurrent(t *testing.T) {
	const writers, adds = 4, 500
	var acc LocalityAccumulator
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				acc.Add(scaledStats(1))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		if got := acc.Snapshot(); got != scaledStats(got.Local) {
			t.Fatalf("torn snapshot %+v", got)
		}
	}
	if got, want := acc.Snapshot(), scaledStats(writers*adds); got != want {
		t.Fatalf("accumulator = %+v, want %+v", got, want)
	}
}
