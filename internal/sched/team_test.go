package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"sparsetask/internal/topo"
)

func TestWorkerBlocksDoNotShareCacheLines(t *testing.T) {
	if sz := unsafe.Sizeof(worker{}); sz%64 != 0 {
		t.Fatalf("worker block is %d bytes, not a multiple of a cache line", sz)
	}
}

// TestRootPlacementRepeats pins that the per-domain root cursors restart with
// the run: with an affinity map, every Run puts every root on the same
// worker's deque as the first one did. (They used to advance forever, so a
// domain whose root count is not a multiple of its width rotated its
// placement — and its locality counters — from one iteration to the next.)
func TestRootPlacementRepeats(t *testing.T) {
	// Two domains of two workers; three roots prefer each domain, one none.
	const n = 7
	indeg := make([]int32, n)
	roots := []int32{0, 1, 2, 3, 4, 5, 6}
	aff := []int{0, 0, 0, 1, 1, 1, -1}
	e := NewExecutor(n, indeg, func(int32) []int32 { return nil }, roots, func(int, int32) {},
		Options{Workers: 4, Topo: topo.Broadwell(), Affinity: func(t int32) int { return aff[t] }})
	defer e.Close()
	placement := func() [][]int32 {
		// Between runs the helpers touch no deque, so the test may seed and
		// drain them itself.
		e.reset()
		out := make([][]int32, len(e.deques))
		for w, d := range e.deques {
			for {
				v, ok := d.Steal()
				if !ok {
					break
				}
				out[w] = append(out[w], v)
			}
		}
		return out
	}
	first := placement()
	placed := 0
	for _, q := range first {
		placed += len(q)
	}
	if placed != n {
		t.Fatalf("seeded %d roots, want %d", placed, n)
	}
	for run := 0; run < 3; run++ {
		if err := e.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		again := placement()
		for w := range first {
			if len(first[w]) != len(again[w]) {
				t.Fatalf("after run %d worker %d is seeded with %v, first with %v", run, w, again[w], first[w])
			}
			for i := range first[w] {
				if first[w][i] != again[w][i] {
					t.Fatalf("after run %d worker %d is seeded with %v, first with %v", run, w, again[w], first[w])
				}
			}
		}
	}
}

// TestIdleProtocolCounters drives a worker through every idle state and
// checks that the counters say so. Two roots: the helper runs its own and is
// then out of work while worker 0 is held inside the other — it probes the
// empty deque (failed steals), spins out its budget and parks. Worker 0 then
// enables two tasks, chains into one, routes the other, finds the helper
// parked and wakes it.
func TestIdleProtocolCounters(t *testing.T) {
	indeg := []int32{0, 0, 1, 1}
	succs := [][]int32{{2, 3}, nil, nil, nil}
	var joined, parked atomic.Bool
	var e *Executor
	e = NewExecutor(4, indeg, func(i int32) []int32 { return succs[i] }, []int32{0, 1},
		func(w int, task int32) {
			switch task {
			case 1:
				joined.Store(true)
			case 0:
				// Hold until the helper has run its root and announced itself
				// as a waiter, then a little longer so it is past its last
				// look at the queues and asleep.
				deadline := time.Now().Add(10 * time.Second)
				for !(joined.Load() && e.gate.waiters.Load() > 0) && time.Now().Before(deadline) {
					time.Sleep(100 * time.Microsecond)
				}
				parked.Store(joined.Load() && e.gate.waiters.Load() > 0)
				time.Sleep(5 * time.Millisecond)
			}
		}, Options{Workers: 2})
	defer e.Close()
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !parked.Load() {
		t.Fatal("helper never parked while the root task ran")
	}
	s := e.Stats()
	if s.StealFails == 0 || s.Spins == 0 || s.Parks == 0 || s.Wakes == 0 {
		t.Fatalf("idle counters not all set: %+v", s)
	}
	if s.Tasks() != 4 {
		t.Fatalf("ran %d tasks, want 4", s.Tasks())
	}
	// They accumulate like the locality counters and reset with them.
	var acc LocalityAccumulator
	acc.Add(s)
	acc.Add(s)
	if got := acc.Snapshot(); got.Parks != 2*s.Parks || got.Spins != 2*s.Spins || got.Wakes != 2*s.Wakes || got.StealFails != 2*s.StealFails {
		t.Fatalf("accumulator %+v after adding %+v twice", got, s)
	}
	var sum LocalityStats
	sum.Add(s)
	if sum != s {
		t.Fatalf("LocalityStats.Add dropped a field: %+v != %+v", sum, s)
	}
	e.ResetStats()
	if s := e.Stats(); s != (LocalityStats{}) {
		t.Fatalf("after reset: %+v", s)
	}
}

// TestFlatStealTakesABatch: one worker holds a long queue of slow tasks, the
// other has none. A thief that took one task per trip would steal once per
// task it runs; taking half the queue (at most stealBurst) per trip, it runs
// many tasks per steal.
func TestFlatStealTakesABatch(t *testing.T) {
	const n = 400
	indeg := make([]int32, n+1)
	fan := make([]int32, n)
	for i := range fan {
		fan[i] = int32(i + 1)
		indeg[i+1] = 1
	}
	succs := func(i int32) []int32 {
		if i == 0 {
			return fan
		}
		return nil
	}
	var ran [2]atomic.Int64
	e := NewExecutor(n+1, indeg, succs, []int32{0}, func(w int, task int32) {
		if task != 0 {
			ran[w].Add(1)
			time.Sleep(20 * time.Microsecond)
		}
	}, Options{Workers: 2, Discipline: FIFO})
	defer e.Close()
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Tasks() != n+1 {
		t.Fatalf("ran %d tasks, want %d", s.Tasks(), n+1)
	}
	if s.StealsDomain == 0 {
		t.Skip("the second worker never got to steal (single hardware thread?)")
	}
	// Every task the thief ran arrived by a steal or in a steal's batch.
	thief := min(ran[0].Load(), ran[1].Load())
	if perSteal := float64(thief) / float64(s.StealsDomain); perSteal < 2 {
		t.Fatalf("thief ran %d tasks on %d steals (%.1f per steal): no batching", thief, s.StealsDomain, perSteal)
	}
}

// TestGateNoLostWakeup hammers the announce / re-check / sleep protocol: a
// consumer that sleeps whenever it sees nothing must receive every item a
// producer publishes and then notifies about, however the two interleave.
func TestGateNoLostWakeup(t *testing.T) {
	var g Gate
	var published, consumed atomic.Int64
	const items = 20000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for consumed.Load() < items {
			if consumed.Load() < published.Load() {
				consumed.Add(1)
				continue
			}
			key := g.prepare()
			if consumed.Load() < published.Load() {
				g.cancel()
				continue
			}
			g.wait(key)
		}
	}()
	for i := 0; i < items; i++ {
		published.Add(1)
		g.Notify()
		if i%64 == 0 {
			runtime.Gosched()
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("consumer stuck at %d of %d: a wake-up was lost", consumed.Load(), published.Load())
	}
}

// TestExecutorLifecycleLeavesNoGoroutine: helpers exist from construction to
// Close, whatever happened in between — a clean run, a cancelled one, a
// panicking one — and a closed executor has none left.
func TestExecutorLifecycleLeavesNoGoroutine(t *testing.T) {
	n, indeg, succs, roots := chainGraph(4, 50)
	before := runtime.NumGoroutine()
	for _, mode := range []string{"clean", "cancel", "panic"} {
		ctx, cancel := context.WithCancel(context.Background())
		var count atomic.Int64
		e := NewExecutor(n, indeg, func(i int32) []int32 { return succs[i] }, roots,
			func(w int, task int32) {
				switch c := count.Add(1); {
				case mode == "cancel" && c == 20:
					cancel()
				case mode == "cancel" && c > 20:
					time.Sleep(time.Millisecond) // let the cancellation land
				case mode == "panic" && c == 20:
					panic("boom")
				}
			}, Options{Workers: 4})
		func() {
			defer func() {
				if r := recover(); (r != nil) != (mode == "panic") {
					t.Errorf("%s: recovered %v", mode, r)
				}
			}()
			err := e.Run(ctx)
			if mode == "cancel" && !errors.Is(err, context.Canceled) {
				t.Errorf("cancel: Run returned %v", err)
			}
			if mode == "clean" && err != nil {
				t.Errorf("clean: %v", err)
			}
		}()
		// An executor that saw a run end short is still usable.
		count.Store(-1 << 40)
		if err := e.Run(context.Background()); err != nil {
			t.Errorf("%s: rerun: %v", mode, err)
		}
		e.Close()
		e.Close() // idempotent
		cancel()
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines fails unless the goroutine count returns to at most want
// (exited goroutines are reaped asynchronously, so it polls briefly).
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, want at most %d:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentExecutorsShareNothing runs several executors at once, as
// solverd's jobs do, each through many back-to-back runs: the spin/park
// protocol is per executor and must not depend on having the machine to
// itself.
func TestConcurrentExecutorsShareNothing(t *testing.T) {
	n, indeg, succs, roots := chainGraph(6, 30)
	var wg sync.WaitGroup
	for j := 0; j < 4; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var count atomic.Int64
			e := NewExecutor(n, indeg, func(i int32) []int32 { return succs[i] }, roots,
				func(int, int32) { count.Add(1) }, Options{Workers: 3})
			defer e.Close()
			for run := 0; run < 200; run++ {
				if err := e.Run(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
			if got := count.Load(); got != int64(200*n) {
				t.Errorf("executed %d tasks, want %d", got, 200*n)
			}
		}()
	}
	wg.Wait()
}
