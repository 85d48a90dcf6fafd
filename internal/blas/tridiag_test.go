package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTridiagEigLaplacian(t *testing.T) {
	for _, n := range []int{1, 2, 5, 30, 100} {
		d := make([]float64, n)
		e := make([]float64, max0(n-1))
		for i := range d {
			d[i] = 2
		}
		for i := range e {
			e[i] = -1
		}
		ev, err := TridiagEig(d, e)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= n; k++ {
			want := 2 - 2*math.Cos(float64(k)*math.Pi/float64(n+1))
			if math.Abs(ev[k-1]-want) > 1e-10 {
				t.Fatalf("n=%d λ_%d = %v, want %v", n, k, ev[k-1], want)
			}
		}
	}
}

func max0(x int) int {
	if x < 0 {
		return 0
	}
	return x
}

func TestTridiagEigMatchesJacobi(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		d := make([]float64, n)
		e := make([]float64, n-1)
		for i := range d {
			d[i] = rng.NormFloat64() * 3
		}
		for i := range e {
			e[i] = rng.NormFloat64()
		}
		ql, err := TridiagEig(d, e)
		if err != nil {
			return false
		}
		jac, _, err := referenceSymEigJacobi(denseTridiag(d, e), n)
		if err != nil {
			return false
		}
		for i := range ql {
			if math.Abs(ql[i]-jac[i]) > 1e-8*(1+math.Abs(jac[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTridiagEigInputValidation(t *testing.T) {
	if _, err := TridiagEig([]float64{1, 2}, []float64{}); err == nil {
		t.Fatal("expected length error")
	}
	ev, err := TridiagEig(nil, nil)
	if err != nil || ev != nil {
		t.Fatal("empty input should return empty result")
	}
}

func TestTridiagEigDoesNotModifyInput(t *testing.T) {
	d := []float64{3, 1, 2}
	e := []float64{0.5, -0.5}
	d0 := append([]float64(nil), d...)
	e0 := append([]float64(nil), e...)
	if _, err := TridiagEig(d, e); err != nil {
		t.Fatal(err)
	}
	for i := range d {
		if d[i] != d0[i] {
			t.Fatal("d modified")
		}
	}
	for i := range e {
		if e[i] != e0[i] {
			t.Fatal("e modified")
		}
	}
}

func TestSturmCountConsistentWithEigenvalues(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 20
	d := make([]float64, n)
	e := make([]float64, n-1)
	for i := range d {
		d[i] = rng.NormFloat64() * 2
	}
	for i := range e {
		e[i] = rng.NormFloat64()
	}
	ev, err := TridiagEig(d, e)
	if err != nil {
		t.Fatal(err)
	}
	// Between consecutive eigenvalues, the Sturm count must equal the index.
	for k := 0; k <= n; k++ {
		var x float64
		switch {
		case k == 0:
			x = ev[0] - 1
		case k == n:
			x = ev[n-1] + 1
		default:
			x = 0.5 * (ev[k-1] + ev[k])
		}
		if got := SturmCount(d, e, x); got != k {
			t.Errorf("SturmCount below %v = %d, want %d", x, got, k)
		}
	}
}
