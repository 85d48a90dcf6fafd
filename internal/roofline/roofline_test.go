package roofline

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"sparsetask/internal/topo"
)

// fakeClock returns a clock whose reads advance by step ns per call, so a
// calibration's timing is a pure function of the call sequence.
func fakeClock(step int64) func() int64 {
	var calls atomic.Int64
	return func() int64 {
		return calls.Add(1) * step
	}
}

func TestBytesModels(t *testing.T) {
	// 100 rows, 1000 nnz general: 16·1000 + 8·200 = 17600.
	if got := SpMVBytes(100, 100, 1000); got != 17600 {
		t.Fatalf("SpMVBytes = %d, want 17600", got)
	}
	// SpMM n=8 scales only the vector term: 16000 + 8·8·200 = 28800.
	if got := SpMMBytes(100, 100, 1000, 8); got != 28800 {
		t.Fatalf("SpMMBytes = %d, want 28800", got)
	}
	// Symmetric storage with full diagonal: stored = (1000+100)/2 = 550.
	if got := SymSpMVBytes(100, 100, 550); got != 16*550+1600 {
		t.Fatalf("SymSpMVBytes = %d, want %d", got, 16*550+1600)
	}
	if got := SymSpMMBytes(100, 100, 550, 8); got != 16*550+12800 {
		t.Fatalf("SymSpMMBytes = %d, want %d", got, 16*550+12800)
	}
	// Trsv pair: 12·(600+600) + 2·4·101 + 32·100 = 18408.
	if got := TrsvPairBytes(100, 600, 600); got != 18408 {
		t.Fatalf("TrsvPairBytes = %d, want 18408", got)
	}
}

// The headline PR8 claim: for realistic nnz/row, symmetric storage streams
// at most ~55% of the general matrix bytes.
func TestMatrixBytesRatioBound(t *testing.T) {
	// nlpkkt-class density (~27 nnz/row, full diagonal): rows=5488.
	rows, nnz := 5488, 5488*27
	stored := (nnz + rows) / 2
	if r := MatrixBytesRatio(stored, nnz); r > 0.55 {
		t.Fatalf("ratio %.3f exceeds 0.55 for 27 nnz/row", r)
	}
	// Degenerate diagonal matrix: no savings, ratio 1.
	if r := MatrixBytesRatio(100, 100); r != 1 {
		t.Fatalf("diagonal matrix ratio = %v, want 1", r)
	}
	if r := MatrixBytesRatio(5, 0); r != 1 {
		t.Fatalf("empty matrix ratio = %v, want 1", r)
	}
}

func TestAttainedGBps(t *testing.T) {
	if g := AttainedGBps(24000, 1000); g != 24 {
		t.Fatalf("24000 B in 1000 ns = %v GB/s, want 24", g)
	}
	if g := AttainedGBps(100, 0); g != 0 {
		t.Fatalf("zero time must grade 0, got %v", g)
	}
}

func TestTriadKernel(t *testing.T) {
	a := make([]float64, 64)
	b := make([]float64, 64)
	c := make([]float64, 64)
	for i := range b {
		b[i] = float64(i)
		c[i] = float64(2 * i)
	}
	triad(a, b, c)
	for i := range a {
		want := b[i] + triadScale*c[i]
		if a[i] != want {
			t.Fatalf("a[%d] = %v, want %v", i, a[i], want)
		}
	}
}

// With an injected deterministic clock, the measured peak is an exact
// function of the clock sequence: each timed pass spans one start and one end
// read, so every pass measures exactly `step` ns.
func TestCalibrateDeterministicClock(t *testing.T) {
	const step = 1 << 20 // ~1 ms per clock read
	got := Calibrate(topo.Topology{Name: "test-det"}, 2, fakeClock(step))
	want := float64(triadN*triadBytesPerElem) / float64(step)
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("Calibrate = %v GB/s, want %v", got, want)
	}
}

// A second call with the same profile and worker count must hit the memo and
// never read the clock again.
func TestCalibrateMemoized(t *testing.T) {
	key := topo.Topology{Name: "test-memo"}
	first := Calibrate(key, 3, fakeClock(1<<20))
	again := Calibrate(key, 3, func() int64 {
		t.Fatal("memoized Calibrate read the clock")
		return 0
	})
	if again != first {
		t.Fatalf("memoized value %v differs from first %v", again, first)
	}
}

// Concurrent calibrations of the same key must be race-free (the repo's race
// matrix runs this package) and converge on one stored value.
func TestCalibrateConcurrent(t *testing.T) {
	key := topo.Topology{Name: "test-conc"}
	clock := fakeClock(1 << 18)
	var wg sync.WaitGroup
	vals := make([]float64, 8)
	for i := range vals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i] = Calibrate(key, 4, clock)
		}(i)
	}
	wg.Wait()
	stored := Calibrate(key, 4, func() int64 {
		t.Error("post-race Calibrate read the clock")
		return 0
	})
	for i, v := range vals {
		if v <= 0 {
			t.Fatalf("goroutine %d measured %v", i, v)
		}
	}
	if stored <= 0 {
		t.Fatalf("stored peak %v", stored)
	}
}
