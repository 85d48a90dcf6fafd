package sched

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestDequeSequential(t *testing.T) {
	d := NewDeque()
	if _, ok := d.Pop(); ok {
		t.Fatal("pop from empty deque succeeded")
	}
	if _, ok := d.Steal(); ok {
		t.Fatal("steal from empty deque succeeded")
	}
	for i := int32(0); i < 10; i++ {
		d.Push(i)
	}
	if d.Size() != 10 {
		t.Fatalf("size = %d, want 10", d.Size())
	}
	// Pop is LIFO.
	if v, ok := d.Pop(); !ok || v != 9 {
		t.Fatalf("pop = %d,%v, want 9", v, ok)
	}
	// Steal is FIFO.
	if v, ok := d.Steal(); !ok || v != 0 {
		t.Fatalf("steal = %d,%v, want 0", v, ok)
	}
}

func TestDequeGrowth(t *testing.T) {
	d := NewDeque()
	const n = 10000 // force several ring growths
	for i := int32(0); i < n; i++ {
		d.Push(i)
	}
	for i := int32(n - 1); i >= 0; i-- {
		v, ok := d.Pop()
		if !ok || v != i {
			t.Fatalf("pop = %d,%v, want %d", v, ok, i)
		}
	}
}

func TestDequeConcurrentStealers(t *testing.T) {
	// The owner pushes and pops while thieves steal; every pushed value must
	// be consumed exactly once.
	d := NewDeque()
	const n = 50000
	const thieves = 4
	var got [n]atomic.Int32
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if v, ok := d.Steal(); ok {
					got[v].Add(1)
					continue
				}
				select {
				case <-stop:
					// Drain whatever remains.
					for {
						v, ok := d.Steal()
						if !ok {
							return
						}
						got[v].Add(1)
					}
				default:
				}
			}
		}()
	}
	// Owner: push everything, interleaving occasional pops.
	rng := rand.New(rand.NewSource(1))
	for i := int32(0); i < n; i++ {
		d.Push(i)
		if rng.Intn(4) == 0 {
			if v, ok := d.Pop(); ok {
				got[v].Add(1)
			}
		}
	}
	// Owner drains its own side too.
	for {
		v, ok := d.Pop()
		if !ok {
			break
		}
		got[v].Add(1)
	}
	close(stop)
	wg.Wait()
	for i := 0; i < n; i++ {
		if c := got[i].Load(); c != 1 {
			t.Fatalf("value %d consumed %d times", i, c)
		}
	}
}

// chainGraph builds a graph of `chains` independent chains of length `depth`.
func chainGraph(chains, depth int) (n int, indeg []int32, succs [][]int32, roots []int32) {
	n = chains * depth
	indeg = make([]int32, n)
	succs = make([][]int32, n)
	for c := 0; c < chains; c++ {
		for d := 0; d < depth; d++ {
			id := int32(c*depth + d)
			if d == 0 {
				roots = append(roots, id)
			} else {
				indeg[id] = 1
				succs[id-1] = append(succs[id-1], id)
			}
		}
	}
	return
}

func TestRunGraphExecutesAllOnce(t *testing.T) {
	for _, disc := range []Discipline{LIFO, FIFO} {
		n, indeg, succs, roots := chainGraph(17, 23)
		var count atomic.Int64
		ran := make([]atomic.Int32, n)
		RunGraph(context.Background(), n, indeg, func(i int32) []int32 { return succs[i] }, roots,
			func(w int, task int32) {
				ran[task].Add(1)
				count.Add(1)
			}, Options{Workers: 4, Discipline: disc})
		if count.Load() != int64(n) {
			t.Fatalf("disc=%v: executed %d tasks, want %d", disc, count.Load(), n)
		}
		for i := range ran {
			if ran[i].Load() != 1 {
				t.Fatalf("disc=%v: task %d ran %d times", disc, i, ran[i].Load())
			}
		}
	}
}

func TestRunGraphRespectsDependencies(t *testing.T) {
	// Random DAG: edges only from lower to higher ids. Record completion
	// order and verify each task ran after its deps.
	rng := rand.New(rand.NewSource(42))
	n := 500
	indeg := make([]int32, n)
	succs := make([][]int32, n)
	deps := make([][]int32, n)
	var roots []int32
	for i := 1; i < n; i++ {
		nd := rng.Intn(3)
		seen := map[int32]bool{}
		for k := 0; k < nd; k++ {
			d := int32(rng.Intn(i))
			if seen[d] {
				continue
			}
			seen[d] = true
			deps[i] = append(deps[i], d)
			succs[d] = append(succs[d], int32(i))
			indeg[i]++
		}
	}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			roots = append(roots, int32(i))
		}
	}
	finished := make([]atomic.Bool, n)
	var bad atomic.Int32
	RunGraph(context.Background(), n, indeg, func(i int32) []int32 { return succs[i] }, roots,
		func(w int, task int32) {
			for _, d := range deps[task] {
				if !finished[d].Load() {
					bad.Add(1)
				}
			}
			finished[task].Store(true)
		}, Options{Workers: 8})
	if bad.Load() != 0 {
		t.Fatalf("%d dependency violations", bad.Load())
	}
}

func TestRunGraphSingleWorker(t *testing.T) {
	n, indeg, succs, roots := chainGraph(3, 5)
	order := []int32{}
	RunGraph(context.Background(), n, indeg, func(i int32) []int32 { return succs[i] }, roots,
		func(w int, task int32) {
			if w != 0 {
				t.Errorf("worker %d used, want only 0", w)
			}
			order = append(order, task)
		}, Options{Workers: 1})
	if len(order) != n {
		t.Fatalf("%d tasks executed, want %d", len(order), n)
	}
}

func TestRunGraphInitialOrder(t *testing.T) {
	// The roots argument is the submission order, whatever it is; execution
	// must still run everything exactly once.
	n, indeg, succs, roots := chainGraph(5, 4)
	rev := make([]int32, len(roots))
	for i, r := range roots {
		rev[len(roots)-1-i] = r
	}
	var count atomic.Int64
	RunGraph(context.Background(), n, indeg, func(i int32) []int32 { return succs[i] }, rev,
		func(w int, task int32) { count.Add(1) },
		Options{Workers: 2})
	if count.Load() != int64(n) {
		t.Fatalf("executed %d, want %d", count.Load(), n)
	}
}

func TestRunGraphEmpty(t *testing.T) {
	RunGraph(context.Background(), 0, nil, nil, nil, nil, Options{}) // must not hang or panic
}

// TestDequeModelCheck verifies the deque against a reference slice model
// under random single-threaded operation sequences: Push appends at the
// bottom, Pop removes from the bottom, Steal removes from the top.
func TestDequeModelCheck(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewDeque()
		var model []int32
		next := int32(0)
		for op := 0; op < 2000; op++ {
			switch rng.Intn(3) {
			case 0: // push
				d.Push(next)
				model = append(model, next)
				next++
			case 1: // pop (bottom)
				v, ok := d.Pop()
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				want := model[len(model)-1]
				model = model[:len(model)-1]
				if !ok || v != want {
					return false
				}
			case 2: // steal (top)
				v, ok := d.Steal()
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				want := model[0]
				model = model[1:]
				if !ok || v != want {
					return false
				}
			}
			if d.Size() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRunGraphCancellation(t *testing.T) {
	// Pre-cancelled context: nothing runs, the context error is returned.
	n := 8
	indeg := make([]int32, n)
	succs := make([][]int32, n)
	for i := 0; i < n-1; i++ {
		succs[i] = []int32{int32(i + 1)}
		indeg[i+1] = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var count atomic.Int64
	err := RunGraph(ctx, n, indeg, func(i int32) []int32 { return succs[i] }, []int32{0},
		func(w int, task int32) { count.Add(1) }, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if count.Load() != 0 {
		t.Fatalf("executed %d tasks under a pre-cancelled context", count.Load())
	}

	// Cancel mid-chain: task 2 cancels, later tasks sleep so the shutdown
	// lands; the tail of the chain must not execute.
	indeg2 := make([]int32, n)
	copy(indeg2, indeg)
	indeg2[0] = 0
	for i := 1; i < n; i++ {
		indeg2[i] = 1
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var ran atomic.Int64
	err = RunGraph(ctx2, n, indeg2, func(i int32) []int32 { return succs[i] }, []int32{0},
		func(w int, task int32) {
			ran.Add(1)
			if task == 2 {
				cancel2()
				time.Sleep(100 * time.Millisecond)
			} else if task > 2 {
				time.Sleep(5 * time.Millisecond)
			}
		}, Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-chain err = %v, want context.Canceled", err)
	}
	if ran.Load() >= int64(n) {
		t.Fatalf("all %d tasks ran despite mid-chain cancel", ran.Load())
	}
}
