package sched

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// fanChainGraph builds stages × (one hub fanning out to width chains of
// length depth); every chain's tail feeds the next stage's hub. A hub's
// completion publishes width tasks onto one deque at once, which the other
// workers then steal, half a queue at a time, while the owner pops or
// pushes on the other end; the chains keep the owner chaining and pushing.
func fanChainGraph(stages, width, depth int) (n int, indeg []int32, succs [][]int32, roots []int32) {
	n = stages * (1 + width*depth)
	indeg = make([]int32, n)
	succs = make([][]int32, n)
	hub := func(s int) int32 { return int32(s * (1 + width*depth)) }
	for s := 0; s < stages; s++ {
		h := hub(s)
		for c := 0; c < width; c++ {
			prev := h
			for d := 0; d < depth; d++ {
				id := h + 1 + int32(c*depth+d)
				succs[prev] = append(succs[prev], id)
				indeg[id]++
				prev = id
			}
			if s+1 < stages {
				next := hub(s + 1)
				succs[prev] = append(succs[prev], next)
				indeg[next]++
			}
		}
	}
	return n, indeg, succs, []int32{hub(0)}
}

// TestStealPathsRunEveryTaskOnce holds the deque's ownership rule by running
// it: only a worker pushes and pops its own deque, every other worker only
// steals from it. A thief that pops a victim's bottom, or a worker that
// pushes onto another's deque, races the owner at the end that is not
// synchronised: a task is lost (the run never finishes) or run twice. Four
// workers, both disciplines, many runs of a steal-heavy graph; each task
// must run exactly once per run. A run that does not finish within its
// watchdog is cancelled and fails the test in seconds rather than hanging
// to go test's timeout.
func TestStealPathsRunEveryTaskOnce(t *testing.T) {
	const (
		runs     = 600
		watchdog = 5 * time.Second
	)
	n, indeg, succs, roots := fanChainGraph(16, 32, 2)
	for _, disc := range []Discipline{LIFO, FIFO} {
		ran := make([]atomic.Int32, n)
		e := NewExecutor(n, indeg, func(i int32) []int32 { return succs[i] }, roots,
			func(w int, task int32) { ran[task].Add(1) },
			Options{Workers: 4, Discipline: disc})
		defer e.Close()
		for run := 0; run < runs; run++ {
			for i := range ran {
				ran[i].Store(0)
			}
			if err := runWatched(e, watchdog); err != nil {
				t.Fatalf("disc=%v run=%d: %v; %s", disc, run, err, tally(ran))
			}
			for i := range ran {
				if c := ran[i].Load(); c != 1 {
					t.Fatalf("disc=%v run=%d: task %d ran %d times; %s", disc, run, i, c, tally(ran))
				}
			}
		}
	}
}

// runWatched runs e once with a deadline of d. Past d plus a grace period
// the run has not even honoured its cancellation, and the process panics.
func runWatched(e *Executor, d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	hard := time.AfterFunc(d+5*time.Second, func() {
		panic(fmt.Sprintf("sched: executor run ignored its cancellation %v past its %v deadline", 5*time.Second, d))
	})
	defer hard.Stop()
	return e.Run(ctx)
}

// tally summarises a run's execution counts: how many tasks ran zero times
// and how many more than once.
func tally(ran []atomic.Int32) string {
	var lost, dup int
	for i := range ran {
		switch c := ran[i].Load(); {
		case c == 0:
			lost++
		case c > 1:
			dup++
		}
	}
	return fmt.Sprintf("%d of %d tasks never ran, %d ran more than once", lost, len(ran), dup)
}
