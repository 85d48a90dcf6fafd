// Package roofline grades measured kernel rates against the machine's
// sustainable memory bandwidth. Every sparse kernel in this repo is
// bandwidth-bound (a handful of flops per matrix byte), so the honest way to
// read a ns/op number is as a fraction of peak: bytes the kernel must stream
// (a per-kernel traffic model) divided by measured time, over the bandwidth a
// STREAM triad sustains on the same host.
//
// The traffic models are deliberate lower bounds — each operand streams
// exactly once, no write-allocate traffic, no conflict misses — so the
// attained fraction is conservative: a kernel at 0.8 of peak under this model
// is doing at least that well in reality.
//
// Calibration takes the clock as a parameter rather than reading it, which
// keeps this package inside the sparselint determinism scope: for a fixed
// clock sequence, Calibrate is a pure function of its inputs.
package roofline

import (
	"sync"

	"sparsetask/internal/topo"
)

// Per-entry storage costs of the two sparse formats.
const (
	// csbEntryBytes is one stored CSB/SymCSB entry: an 8-byte float64 value
	// plus two 4-byte int32 in-tile coordinates.
	csbEntryBytes = 16
	// csrEntryBytes is one stored CSR entry: an 8-byte value plus a 4-byte
	// column index (the row pointer is counted separately, per row).
	csrEntryBytes = 12
	elemBytes     = 8
	indexBytes    = 4
)

// SpMVBytes models the minimum bytes y = A·x must stream with general CSB
// storage: every stored entry once, x and y once.
func SpMVBytes(rows, cols, nnz int) int64 {
	return csbEntryBytes*int64(nnz) + elemBytes*int64(cols) + elemBytes*int64(rows)
}

// SpMMBytes is SpMVBytes for an n-column block of vectors: the matrix bytes
// are unchanged while the vector traffic scales with n — which is why SpMM
// attains a higher fraction of peak than SpMV on the same matrix.
func SpMMBytes(rows, cols, nnz, n int) int64 {
	return csbEntryBytes*int64(nnz) + elemBytes*int64(n)*(int64(cols)+int64(rows))
}

// SymSpMVBytes models y = A·x over SymCSB storage: only the stored lower
// triangle plus diagonal streams (each entry serves both its direct and
// transposed product), so the matrix term is roughly halved versus SpMVBytes.
func SymSpMVBytes(rows, cols, storedNNZ int) int64 {
	return csbEntryBytes*int64(storedNNZ) + elemBytes*int64(cols) + elemBytes*int64(rows)
}

// SymSpMMBytes is SymSpMVBytes for an n-column block of vectors.
func SymSpMMBytes(rows, cols, storedNNZ, n int) int64 {
	return csbEntryBytes*int64(storedNNZ) + elemBytes*int64(n)*(int64(cols)+int64(rows))
}

// TrsvPairBytes models one forward + one backward substitution over CSR
// triangular factors (the IC(0) preconditioner application): each factor's
// entries and row pointers stream once, with an input read and an output
// write of one vector per solve.
func TrsvPairBytes(rows, nnzLower, nnzUpper int) int64 {
	factors := csrEntryBytes*(int64(nnzLower)+int64(nnzUpper)) +
		2*indexBytes*int64(rows+1)
	vectors := 2 * 2 * elemBytes * int64(rows)
	return factors + vectors
}

// MatrixBytesRatio returns the symmetric storage's matrix-byte stream as a
// fraction of the general format's: storedNNZ/fullNNZ, ~0.5 + diag/(2·nnz)
// for a symmetric matrix. The PR8 acceptance bound (≤ ~0.55) is this ratio.
func MatrixBytesRatio(storedNNZ, fullNNZ int) float64 {
	if fullNNZ == 0 {
		return 1
	}
	return float64(storedNNZ) / float64(fullNNZ)
}

// AttainedGBps converts a traffic model and a measured per-op time into a
// bandwidth: bytes/ns is numerically GB/s.
func AttainedGBps(bytes int64, nsPerOp float64) float64 {
	if nsPerOp <= 0 {
		return 0
	}
	return float64(bytes) / nsPerOp
}

// Triad calibration parameters. Three arrays of 1<<21 float64 each (48 MiB
// working set) overflow any LLC this repo targets, so the measured rate is
// memory bandwidth, not cache bandwidth. 24 bytes move per element per pass:
// read b, read c, write a (write-allocate traffic is excluded to match the
// kernel models' lower-bound convention).
const (
	triadN            = 1 << 21
	triadBytesPerElem = 3 * elemBytes
	triadReps         = 3
	triadScale        = 2.5
)

// TriadBytes is the bytes one timed triad pass moves under the model —
// exported so reports can convert a calibrated GB/s back into the pass time.
const TriadBytes = triadN * triadBytesPerElem

type peakKey struct {
	profile string
	workers int
}

var (
	peakMu sync.Mutex
	peaks  = map[peakKey]float64{}
)

func cachedPeak(k peakKey) (float64, bool) {
	peakMu.Lock()
	defer peakMu.Unlock()
	v, ok := peaks[k]
	return v, ok
}

func storePeak(k peakKey, v float64) {
	peakMu.Lock()
	defer peakMu.Unlock()
	peaks[k] = v
}

// Calibrate measures the bandwidth (GB/s) a worker-parallel STREAM triad
// sustains: the arrays split into one contiguous chunk per worker. clock must
// return monotonic nanoseconds. The best of triadReps timed passes (after one
// untimed warmup that pays the page faults) is kept, and results are
// memoized per (profile name, workers) so repeated grading reuses one
// measurement.
func Calibrate(tp topo.Topology, workers int, clock func() int64) float64 {
	if workers < 1 {
		workers = 1
	}
	k := peakKey{tp.Name, workers}
	if v, ok := cachedPeak(k); ok {
		return v
	}

	a := make([]float64, triadN)
	b := make([]float64, triadN)
	c := make([]float64, triadN)
	for i := range b {
		b[i] = float64(i%16) * 0.5
		c[i] = float64(i%8) * 0.25
	}
	run := func() int64 {
		start := clock()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := triadN*w/workers, triadN*(w+1)/workers
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				triad(a[lo:hi], b[lo:hi], c[lo:hi])
			}(lo, hi)
		}
		wg.Wait()
		return clock() - start
	}
	run() // warmup: page faults and scheduler spin-up stay out of the timing
	best := run()
	for rep := 1; rep < triadReps; rep++ {
		if t := run(); t < best {
			best = t
		}
	}
	if best < 1 {
		best = 1
	}
	gbps := float64(triadN*triadBytesPerElem) / float64(best)
	storePeak(k, gbps)
	return gbps
}

func triad(a, b, c []float64) {
	for i := range a {
		a[i] = b[i] + triadScale*c[i]
	}
}
