package autotune

import (
	"errors"
	"math"
	"testing"

	"sparsetask/internal/machine"
	"sparsetask/internal/matgen"
	"sparsetask/internal/sim"
)

func TestTunePicksMinimum(t *testing.T) {
	// Synthetic U-curve with minimum at block count 45 (bin 32-63).
	res, err := Tune(100000, Evaluator{Cost: func(bc int) (float64, error) {
		return math.Abs(float64(bc) - 50), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.BlockCount != 45 || res.Bin != "32-63" {
		t.Fatalf("picked %d (%s), want 45 (32-63)", res.BlockCount, res.Bin)
	}
	if res.Block != (100000+44)/45 {
		t.Fatalf("block = %d", res.Block)
	}
	if len(res.Trials) != 6 {
		t.Fatalf("%d trials, want 6", len(res.Trials))
	}
}

func TestTuneSkipsInfeasible(t *testing.T) {
	calls := 0
	res, err := Tune(100000, Evaluator{Cost: func(bc int) (float64, error) {
		calls++
		if bc < 100 {
			return 0, errors.New("infeasible")
		}
		return float64(bc), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.BlockCount != 181 {
		t.Fatalf("picked %d, want 181 (smallest feasible)", res.BlockCount)
	}
	if calls != 6 {
		t.Fatalf("evaluator called %d times, want 6", calls)
	}
}

func TestTuneSmallMatrixSkipsLargeBins(t *testing.T) {
	seen := map[int]bool{}
	if _, err := Tune(100, Evaluator{Cost: func(bc int) (float64, error) {
		seen[bc] = true
		return 1, nil
	}}); err != nil {
		t.Fatal(err)
	}
	if seen[181] || seen[362] {
		t.Fatal("bins beyond the row count must be skipped")
	}
}

func TestTuneAllInfeasibleErrors(t *testing.T) {
	if _, err := Tune(1000, Evaluator{Cost: func(int) (float64, error) { return 0, errors.New("no") }}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Tune(0, Evaluator{}); err == nil {
		t.Fatal("expected error for zero rows")
	}
}

func TestSimEvaluatorEndToEnd(t *testing.T) {
	coo := matgen.KKT(10, 1) // 2000 rows
	mach := machine.Broadwell().Scaled(64).SlowDown(32)
	eval := SimEvaluator(coo, LOBPCG, mach, func(m machine.Model) sim.Policy {
		return sim.NewDeepSparse(m.Cores)
	})
	res, err := Tune(coo.Rows, eval)
	if err != nil {
		t.Fatal(err)
	}
	if res.BlockCount < 8 || res.BlockCount > 511 {
		t.Fatalf("optimum %d outside the paper's window", res.BlockCount)
	}
	if res.Cost <= 0 {
		t.Fatal("nonpositive cost")
	}
}

func TestGraphEvaluatorOrdersOverheadTradeoff(t *testing.T) {
	coo := matgen.KKT(10, 2)
	// With enormous per-task overhead, coarse blocks must win.
	evalCostly := GraphEvaluator(coo, Lanczos, 28, 8, 1e6)
	resCostly, err := Tune(coo.Rows, evalCostly)
	if err != nil {
		t.Fatal(err)
	}
	// With zero overhead, finer decomposition can only help the bound.
	evalFree := GraphEvaluator(coo, Lanczos, 28, 8, 0)
	resFree, err := Tune(coo.Rows, evalFree)
	if err != nil {
		t.Fatal(err)
	}
	if resCostly.BlockCount > resFree.BlockCount {
		t.Fatalf("costly overhead picked finer blocks (%d) than free (%d)",
			resCostly.BlockCount, resFree.BlockCount)
	}
}

func TestSimEvaluatorLanczos(t *testing.T) {
	coo := matgen.FEM3D(8, 8, 8, 1, 7, 3)
	mach := machine.EPYC().Scaled(128).SlowDown(16)
	eval := SimEvaluator(coo, Lanczos, mach, func(m machine.Model) sim.Policy {
		return sim.NewHPX(m.Cores, m.NUMADomains, true)
	})
	if _, err := Tune(coo.Rows, eval); err != nil {
		t.Fatal(err)
	}
}
