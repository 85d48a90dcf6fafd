package bench

import (
	"testing"

	"sparsetask/internal/autotune"
	"sparsetask/internal/machine"
	"sparsetask/internal/matgen"
	"sparsetask/internal/sim"
)

func TestSimEvaluatorEndToEnd(t *testing.T) {
	coo := matgen.KKT(10, 1) // 2000 rows
	mach := machine.Broadwell().Scaled(64).SlowDown(32)
	eval := SimEvaluator(coo, autotune.LOBPCG, mach, func(m machine.Model) sim.Policy {
		return sim.NewDeepSparse(m.Cores)
	})
	res, err := autotune.Tune(coo.Rows, eval)
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

func TestSimEvaluatorLanczos(t *testing.T) {
	coo := matgen.FEM3D(8, 8, 8, 1, 7, 3)
	mach := machine.EPYC().Scaled(128).SlowDown(16)
	eval := SimEvaluator(coo, autotune.Lanczos, mach, func(m machine.Model) sim.Policy {
		return sim.NewHPX(m.Cores, m.NUMADomains, true)
	})
	if _, err := autotune.Tune(coo.Rows, eval); err != nil {
		t.Fatal(err)
	}
}
