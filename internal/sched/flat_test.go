package sched

import (
	"context"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
)

// randomDAG draws an n-task DAG from rng: each task i > 0 takes up to two
// distinct predecessors below it, so ids are a topological order.
func randomDAG(rng *rand.Rand, n int) (indeg []int32, succs [][]int32, roots []int32) {
	indeg = make([]int32, n)
	succs = make([][]int32, n)
	for i := 1; i < n; i++ {
		for k := rng.Intn(3); k > 0; k-- {
			d := int32(rng.Intn(i))
			if slices.Contains(succs[d], int32(i)) {
				continue
			}
			succs[d] = append(succs[d], int32(i))
			indeg[i]++
		}
	}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			roots = append(roots, int32(i))
		}
	}
	return
}

// frozenFlatOrder is the exact one-worker execution order of
// randomDAG(rand.NewSource(seed), 40) per discipline, recorded from the
// executor before its locality domains were removed. LIFO pops the newest
// root first and chains into the last enabled successor; FIFO drains the
// roots in submission order, then what they enabled, breadth-first.
var frozenFlatOrder = map[int64][2][]int32{
	1: {
		LIFO: {39, 36, 31, 30, 26, 24, 18, 17, 13, 7, 19, 10, 28, 14, 25, 27, 0, 22, 34, 38, 4, 32, 23, 35, 1, 2, 6, 12, 37, 5, 11, 29, 9, 16, 15, 21, 8, 3, 20, 33},
		FIFO: {0, 7, 13, 17, 18, 24, 26, 30, 31, 36, 39, 1, 4, 22, 10, 19, 2, 23, 32, 34, 14, 28, 3, 5, 6, 35, 38, 25, 20, 8, 9, 11, 12, 27, 16, 15, 29, 33, 37, 21},
	},
	2: {
		LIFO: {38, 31, 29, 30, 27, 25, 32, 39, 14, 12, 16, 2, 21, 35, 3, 6, 0, 15, 8, 23, 10, 7, 17, 36, 33, 20, 18, 4, 37, 22, 19, 26, 34, 1, 24, 11, 9, 28, 13, 5},
		FIFO: {0, 2, 12, 14, 25, 27, 29, 31, 38, 1, 4, 7, 15, 3, 16, 32, 30, 5, 9, 11, 19, 24, 37, 17, 6, 8, 21, 39, 13, 28, 26, 18, 20, 33, 36, 10, 23, 22, 35, 34},
	},
	3: {
		LIFO: {33, 24, 23, 39, 21, 15, 7, 6, 5, 12, 17, 14, 8, 3, 30, 26, 9, 2, 16, 29, 22, 28, 0, 38, 27, 36, 4, 35, 10, 18, 19, 13, 25, 34, 37, 20, 11, 32, 1, 31},
		FIFO: {0, 2, 3, 5, 6, 7, 15, 21, 23, 24, 33, 1, 27, 38, 16, 4, 9, 26, 30, 12, 8, 39, 36, 29, 35, 14, 17, 10, 31, 22, 11, 13, 18, 28, 32, 20, 25, 19, 34, 37},
	},
}

// TestFlatScheduleFrozen pins the flat schedule. At one worker the execution
// order is fully determined by the discipline, the root dealing and the
// inline chain, so it must match the frozen order on every run of one
// executor. At two workers the order is not fixed, but every task runs
// exactly once and is acquired from the worker's own deque or by a steal:
// a flat executor has no remote tier.
func TestFlatScheduleFrozen(t *testing.T) {
	const n = 40
	for seed, orders := range frozenFlatOrder {
		for _, disc := range []Discipline{LIFO, FIFO} {
			indeg, succs, roots := randomDAG(rand.New(rand.NewSource(seed)), n)
			succ := func(i int32) []int32 { return succs[i] }

			var order []int32
			e := NewExecutor(n, indeg, succ, roots,
				func(w int, task int32) { order = append(order, task) },
				Options{Workers: 1, Discipline: disc})
			for run := 0; run < 2; run++ {
				order = order[:0]
				if err := e.Run(context.Background()); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(order, orders[disc]) {
					t.Fatalf("seed %d disc %v run %d: order\n%v\nwant\n%v", seed, disc, run, order, orders[disc])
				}
			}
			e.Close()

			const runs = 5
			ran := make([]atomic.Int32, n)
			e = NewExecutor(n, indeg, succ, roots,
				func(w int, task int32) { ran[task].Add(1) },
				Options{Workers: 2, Discipline: disc})
			for run := 0; run < runs; run++ {
				if err := e.Run(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			e.Close()
			for i := range ran {
				if c := ran[i].Load(); c != runs {
					t.Fatalf("seed %d disc %v: task %d ran %d times in %d runs", seed, disc, i, c, runs)
				}
			}
			s := e.Stats()
			if s.Local+s.Domain != runs*n || s.Remote != 0 {
				t.Fatalf("seed %d disc %v: local %d + domain %d, remote %d; want %d tasks, none remote",
					seed, disc, s.Local, s.Domain, s.Remote, runs*n)
			}
		}
	}
}
