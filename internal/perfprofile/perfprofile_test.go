package perfprofile

import (
	"math"
	"testing"
)

func sampleTable() *Table {
	t := NewTable([]string{"a", "b"}, []string{"m1", "m2", "m3"})
	// a: best on m1 and m2; b best on m3.
	t.Set(0, 0, 1.0)
	t.Set(0, 1, 2.0)
	t.Set(0, 2, 4.0)
	t.Set(1, 0, 2.0)
	t.Set(1, 1, 3.0)
	t.Set(1, 2, 2.0)
	return t
}

func TestRatios(t *testing.T) {
	r, err := sampleTable().Ratios()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{1, 1, 2}, {2, 1.5, 1}}
	for c := range want {
		for k := range want[c] {
			if math.Abs(r[c][k]-want[c][k]) > 1e-15 {
				t.Errorf("ratio[%d][%d] = %v, want %v", c, k, r[c][k], want[c][k])
			}
		}
	}
}

func TestRho(t *testing.T) {
	ps, err := Compute(sampleTable())
	if err != nil {
		t.Fatal(err)
	}
	a, b := ps[0], ps[1]
	if got := a.Rho(1.0); got != 2.0/3 {
		t.Errorf("a.Rho(1) = %v, want 2/3", got)
	}
	if got := a.Rho(2.0); got != 1.0 {
		t.Errorf("a.Rho(2) = %v, want 1", got)
	}
	if got := b.Rho(1.0); got != 1.0/3 {
		t.Errorf("b.Rho(1) = %v, want 1/3", got)
	}
	if got := b.Rho(1.6); got != 2.0/3 {
		t.Errorf("b.Rho(1.6) = %v, want 2/3", got)
	}
}

func TestFailedRunsAreInfinite(t *testing.T) {
	tab := NewTable([]string{"a", "b"}, []string{"m"})
	tab.Set(0, 0, 5)
	tab.Set(1, 0, math.NaN())
	ps, err := Compute(tab)
	if err != nil {
		t.Fatal(err)
	}
	if ps[1].Rho(1000) != 0 {
		t.Error("failed run should never be within any tau")
	}
}

func TestNoSuccessfulRunErrors(t *testing.T) {
	tab := NewTable([]string{"a"}, []string{"m"})
	tab.Set(0, 0, -1)
	if _, err := Compute(tab); err == nil {
		t.Fatal("expected error for instance with no successful run")
	}
}

func TestEmptyTableErrors(t *testing.T) {
	if _, err := Compute(&Table{}); err == nil {
		t.Fatal("expected error for empty table")
	}
}

func TestAUCOrdersHeuristics(t *testing.T) {
	ps, err := Compute(sampleTable())
	if err != nil {
		t.Fatal(err)
	}
	// Config a is within 1x on 2/3 instances and 2x worst; b is within 1x
	// on 1/3 and 2x worst. a should dominate on AUC.
	if ps[0].AUC(2) <= ps[1].AUC(2) {
		t.Errorf("AUC(a)=%v should exceed AUC(b)=%v", ps[0].AUC(2), ps[1].AUC(2))
	}
	if ps[0].AUC(1) != 0 {
		t.Error("AUC over empty interval should be 0")
	}
}
