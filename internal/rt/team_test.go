package rt

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"sparsetask/internal/graph"
	"sparsetask/internal/kernels"
	"sparsetask/internal/program"
)

// lifecycleProblem is a wide phase, a reduction, a small step that misbehaves
// on request, and a second wide phase: every backend has its team busy when
// the small step fires.
func lifecycleProblem(t *testing.T, step func(*program.Store)) (*graph.TDG, *program.Store) {
	t.Helper()
	p := program.New(64, 4)
	x := p.Vec("x", 1)
	y := p.Vec("y", 1)
	s := p.Scalar("s")
	p.Axpby(y, 1, x, 1, x)
	p.Dot(s, y, y)
	p.SmallStep("step", step, []program.OperandID{s}, []program.OperandID{s})
	p.ScaleInv(x, y, s)
	p.Axpby(y, 1, x, 1, y)
	g, err := graph.Build(p, nil, graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := program.NewStore(p)
	for i := range st.Vec[x] {
		st.Vec[x][i] = float64(i%5) + 1
	}
	return g, st
}

// TestCloseLeavesNoGoroutine: a prepared run owns a team from Prepare (or its
// first Run) to Close, whatever happened in between. After a clean run, a
// cancelled one and a panicking one, on the source and the fused graph, Close
// leaves no goroutine behind on any backend.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, r := range allRuntimes(Options{Workers: 3, AnalysisCost: 1}) {
		for _, mode := range []string{"clean", "cancel", "panic"} {
			for _, fuse := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/fused=%v", r.Name(), mode, fuse)
				ctx, cancel := context.WithCancel(context.Background())
				g, st := lifecycleProblem(t, func(*program.Store) {
					switch mode {
					case "cancel":
						cancel()
						time.Sleep(20 * time.Millisecond) // let the cancellation land
					case "panic":
						panic("kaboom")
					}
				})
				if fuse {
					g = graph.Fuse(g)
				}
				pr := r.Prepare(g, st)
				func() {
					defer func() {
						if rec := recover(); (rec != nil) != (mode == "panic") {
							t.Errorf("%s: recovered %v", name, rec)
						}
					}()
					err := pr.Run(ctx)
					if mode == "cancel" && !errors.Is(err, context.Canceled) {
						t.Errorf("%s: Run returned %v, want context.Canceled", name, err)
					}
					if mode == "clean" && err != nil {
						t.Errorf("%s: %v", name, err)
					}
				}()
				pr.Close()
				cancel()
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPreparedRunSurvivesAShortRun: the same handle, not a fresh one, must
// execute the graph correctly after a cancelled or panicking Run — the team
// is dismissed or drained, never left holding half a run.
func TestPreparedRunSurvivesAShortRun(t *testing.T) {
	for _, r := range allRuntimes(Options{Workers: 3, AnalysisCost: 1}) {
		for _, mode := range []string{"cancel", "panic"} {
			ctx, cancel := context.WithCancel(context.Background())
			armed := true
			step := func(*program.Store) {
				if !armed {
					return
				}
				if mode == "cancel" {
					cancel()
					time.Sleep(20 * time.Millisecond)
				} else {
					panic("kaboom")
				}
			}
			g, st := lifecycleProblem(t, step)
			g = graph.Fuse(g)
			pr := r.Prepare(g, st)
			func() {
				defer func() { _ = recover() }()
				_ = pr.Run(ctx)
			}()
			armed = false
			// Rewind the store and run the same handle again.
			_, fresh := lifecycleProblem(t, step)
			for id := range fresh.Vec {
				copy(st.Vec[id], fresh.Vec[id])
			}
			copy(st.Scalars, fresh.Scalars)
			if err := pr.Run(context.Background()); err != nil {
				t.Fatalf("%s: rerun after %s: %v", r.Name(), mode, err)
			}
			kernels.RunSequential(g.Source(), fresh)
			storesEqual(t, r.Name()+"/"+mode, fresh, st)
			pr.Close()
			cancel()
		}
	}
}
