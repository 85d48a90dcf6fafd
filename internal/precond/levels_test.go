package precond

import (
	"testing"

	"sparsetask/internal/sparse"
)

// reads returns, per block, the blocks the factor's segment dependencies make
// it read.
func reads(lv *Levels) [][]int32 {
	out := make([][]int32, lv.Tri.NB)
	for bi := range out {
		out[bi] = lv.Tri.Reads(nil, bi)
	}
	return out
}

// TestAnalyzeLowerBidiagonal: a bidiagonal lower factor at block=1 is a pure
// chain — every block reads the previous one, so there are n levels.
func TestAnalyzeLowerBidiagonal(t *testing.T) {
	n := 6
	coo := sparse.NewCOO(n, n, 2*n)
	for i := 0; i < n; i++ {
		if i > 0 {
			coo.Append(int32(i), int32(i-1), -1)
		}
		coo.Append(int32(i), int32(i), 2)
	}
	l := coo.ToCSR()
	lv := AnalyzeLower(l, 1)
	if lv.NumLevels != n {
		t.Fatalf("NumLevels = %d, want %d", lv.NumLevels, n)
	}
	for bi, r := range reads(lv) {
		if bi == 0 && len(r) != 0 || bi > 0 && (len(r) != 1 || int(r[0]) != bi-1) {
			t.Fatalf("block %d reads %v, want the block before it", bi, r)
		}
	}
}

// TestAnalyzeDiagonalIsOneLevel: a diagonal factor has no cross-block reads —
// every block sits at level 0 regardless of direction.
func TestAnalyzeDiagonalIsOneLevel(t *testing.T) {
	n := 10
	coo := sparse.NewCOO(n, n, n)
	for i := 0; i < n; i++ {
		coo.Append(int32(i), int32(i), 1)
	}
	d := coo.ToCSR()
	for _, lv := range []*Levels{AnalyzeLower(d, 3), AnalyzeUpper(d, 3)} {
		if lv.NumLevels != 1 {
			t.Fatalf("NumLevels = %d, want 1", lv.NumLevels)
		}
		for bi, r := range reads(lv) {
			if len(r) != 0 {
				t.Fatalf("block %d reads %v, want none", bi, r)
			}
		}
	}
}

// TestAnalyzeUpperMirrorsLower: the backward solve on Lᵀ must have the same
// level count as the forward solve on L (the DAGs are reverses of each
// other), with the blocks it reads later than the reader.
func TestAnalyzeUpperMirrorsLower(t *testing.T) {
	a := laplacian2D(8)
	m, err := Factorize(a)
	if err != nil || m.Kind != KindIC0 {
		t.Fatalf("factorize: %v kind=%v", err, m.Kind)
	}
	const block = 4
	low := AnalyzeLower(m.L, block)
	up := AnalyzeUpper(m.U, block)
	if low.NumLevels != up.NumLevels {
		t.Fatalf("lower has %d levels, upper %d", low.NumLevels, up.NumLevels)
	}
	lowReads, upReads := reads(low), reads(up)
	for bi := range upReads {
		for _, j := range upReads[bi] {
			if int(j) <= bi {
				t.Fatalf("upper block %d reads earlier block %d", bi, j)
			}
		}
		for _, j := range lowReads[bi] {
			if int(j) >= bi {
				t.Fatalf("lower block %d reads later block %d", bi, j)
			}
		}
	}
}

// TestAnalyzeDepsRespectLevels: NumLevels is the longest chain of blocks
// through the blocks each one reads, found here by a memoized longest-path
// search rather than the analysis's one pass in substitution order.
func TestAnalyzeDepsRespectLevels(t *testing.T) {
	a := laplacian2D(11)
	m, err := Factorize(a)
	if err != nil || m.Kind != KindIC0 {
		t.Fatalf("factorize: %v kind=%v", err, m.Kind)
	}
	for _, tc := range []struct {
		name string
		lv   *Levels
	}{
		{"lower", AnalyzeLower(m.L, 5)},
		{"upper", AnalyzeUpper(m.U, 5)},
	} {
		r := reads(tc.lv)
		depth := make([]int, len(r)) // blocks on the longest chain ending at bi; 0 = unknown
		var chain func(bi int) int
		chain = func(bi int) int {
			if depth[bi] == 0 {
				depth[bi] = 1
				for _, j := range r[bi] {
					depth[bi] = max(depth[bi], chain(int(j))+1)
				}
			}
			return depth[bi]
		}
		longest := 0
		for bi := range r {
			longest = max(longest, chain(bi))
		}
		if longest < 2 || tc.lv.NumLevels != longest {
			t.Fatalf("%s: NumLevels %d, longest chain %d blocks", tc.name, tc.lv.NumLevels, longest)
		}
	}
}
