package blas

import "math"

// TridiagEig computes all eigenvalues of a symmetric tridiagonal matrix with
// diagonal d (len n) and off-diagonal e (len n-1) by the implicit QL that
// SymTriEig runs, without eigenvectors. It runs in O(n²) and is Lanczos's
// eigenvalue path. Eigenvalues are returned ascending; a non-finite input is
// an error. Inputs are not modified.
func TridiagEig(d, e []float64) ([]float64, error) {
	n := len(d)
	if n == 0 {
		return nil, nil
	}
	if err := checkTridiag("TridiagEig", d, e); err != nil {
		return nil, err
	}
	dd := append([]float64(nil), d...)
	ee := make([]float64, n) // ee[n-1] is tridiagQL's scratch
	copy(ee, e)
	if err := tridiagQL(dd, ee, nil, n); err != nil {
		return nil, err
	}
	return dd, nil
}

// SturmCount returns the number of eigenvalues of the symmetric tridiagonal
// (d, e) that are strictly less than x, via the Sturm sequence. Useful for
// verifying eigenvalue computations and for bisection-based selective
// extraction.
func SturmCount(d, e []float64, x float64) int {
	count := 0
	q := 1.0
	for i := range d {
		var off float64
		if i > 0 {
			off = e[i-1]
		}
		if q != 0 {
			q = d[i] - x - off*off/q
		} else {
			// Previous pivot vanished: standard perturbation trick.
			q = d[i] - x - math.Abs(off)/1e-300
		}
		if q < 0 {
			count++
		}
	}
	return count
}
