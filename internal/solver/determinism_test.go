package solver

import (
	"context"
	"fmt"
	"testing"

	"sparsetask/internal/rt"
)

// TestLanczosDeterministicAcrossWorkerCounts pins down the core property that
// makes dynamic scheduling safe: the worker count and steal order change
// only *where* tasks run, never the floating-point summation order inside
// them — task bodies and the dependence structure fix that — so Lanczos
// must produce bit-identical eigenvalues under every backend × worker count
// × seed combination.
func TestLanczosDeterministicAcrossWorkerCounts(t *testing.T) {
	coo := randomSPD(120, 7)
	for _, seed := range []int64{1, 42} {
		var want []float64
		var wantFrom string
		for _, w := range []int{1, 2, 4} {
			for _, r := range allBackends(rt.Options{Workers: w}) {
				name := fmt.Sprintf("%s/w%d/seed%d", r.Name(), w, seed)
				l, err := NewLanczos(coo.ToCSB(12), 25)
				if err != nil {
					t.Fatal(err)
				}
				res, err := l.Run(context.Background(), r, seed)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(res.Eigenvalues) == 0 {
					t.Fatalf("%s: no eigenvalues", name)
				}
				if want == nil {
					want, wantFrom = res.Eigenvalues, name
					continue
				}
				if len(res.Eigenvalues) != len(want) {
					t.Fatalf("%s: %d eigenvalues, %s gave %d",
						name, len(res.Eigenvalues), wantFrom, len(want))
				}
				for i := range want {
					if res.Eigenvalues[i] != want[i] {
						t.Errorf("%s: λ_%d = %v differs from %s's %v (must be bit-identical)",
							name, i, res.Eigenvalues[i], wantFrom, want[i])
					}
				}
			}
		}
	}
}
