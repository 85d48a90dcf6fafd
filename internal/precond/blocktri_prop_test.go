package precond_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sparsetask/internal/irgen"
	"sparsetask/internal/matgen"
	"sparsetask/internal/precond"
	"sparsetask/internal/sparse"
)

// The block substitution layout (sparse.BlockTri) as a property, against
// frozen copies of what it replaced: the segment kernels' results, run in any
// order the segment dependencies allow, are the CSR oracles', and the blocks
// each block reads, derived from the segment dependencies, and the block
// levels are those of the old precond.analyze and graph.blockDeps scans, kept
// below verbatim.

// frozenLevels is the level computation of the pre-BlockTri precond.analyze:
// per block its sorted prerequisite blocks and its level, and the number of
// levels.
type frozenLevels struct {
	blockDeps [][]int32
	levelOf   []int32
	numLevels int
}

// frozenAnalyze is the pre-BlockTri precond.analyze.
func frozenAnalyze(a *sparse.CSR, block int, upper bool) *frozenLevels {
	n := a.Rows
	nb := (n + block - 1) / block
	lv := &frozenLevels{
		blockDeps: make([][]int32, nb),
		levelOf:   make([]int32, nb),
	}
	mark := make([]int32, nb)
	for bi := 0; bi < nb; bi++ {
		rlo := bi * block
		rhi := rlo + block
		if rhi > n {
			rhi = n
		}
		var deps []int32
		for i := rlo; i < rhi; i++ {
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				c := int(a.ColIdx[p])
				if upper {
					if c <= i {
						continue
					}
				} else if c >= i {
					continue
				}
				j := int32(c / block)
				if int(j) == bi || mark[j] == int32(bi)+1 {
					continue
				}
				mark[j] = int32(bi) + 1
				deps = append(deps, j)
			}
		}
		frozenSortInt32(deps)
		lv.blockDeps[bi] = deps
	}
	for k := 0; k < nb; k++ {
		bi := k
		if upper {
			bi = nb - 1 - k
		}
		level := int32(0)
		for _, j := range lv.blockDeps[bi] {
			if d := lv.levelOf[j] + 1; d > level {
				level = d
			}
		}
		lv.levelOf[bi] = level
		if int(level)+1 > lv.numLevels {
			lv.numLevels = int(level) + 1
		}
	}
	return lv
}

func frozenSortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// frozenBlockDeps is the pre-BlockTri graph.blockDeps.
func frozenBlockDeps(tri *sparse.CSR, bi, block int, upper bool) []int32 {
	rlo := bi * block
	rhi := rlo + block
	if rhi > tri.Rows {
		rhi = tri.Rows
	}
	var deps []int32
	for i := rlo; i < rhi; i++ {
		for p := tri.RowPtr[i]; p < tri.RowPtr[i+1]; p++ {
			c := int(tri.ColIdx[p])
			if upper {
				if c <= i {
					continue
				}
			} else if c >= i {
				continue
			}
			j := int32(c / block)
			if int(j) == bi {
				continue
			}
			found := false
			for _, d := range deps {
				if d == j {
					found = true
					break
				}
			}
			if !found {
				deps = append(deps, j)
			}
		}
	}
	frozenSortInt32(deps)
	return deps
}

// triShapes returns lower factors: IC(0) factors of irgen's random SPD
// matrices (banded, and scattered with dense hub rows) plus hand-built
// extremes.
func triShapes(t *testing.T) map[string]*sparse.CSR {
	t.Helper()
	shapes := map[string]*sparse.CSR{}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 40 + rng.Intn(120)
		ic, err := precond.Factorize(irgen.RandomSPD(rng, m, seed%2 == 0).ToCSR())
		if err != nil || ic.Kind != precond.KindIC0 {
			t.Fatalf("seed %d: IC(0) of a diagonally dominant matrix failed: %v", seed, err)
		}
		shapes[fmt.Sprintf("spd%d", seed)] = ic.L
	}
	hand := func(n int, below func(i int) []int) *sparse.CSR {
		coo := sparse.NewCOO(n, n, 3*n)
		for i := 0; i < n; i++ {
			for _, j := range below(i) {
				coo.Append(int32(i), int32(j), 0.25+0.01*float64(i+j))
			}
			coo.Append(int32(i), int32(i), 2+0.1*float64(i%7))
		}
		return coo.ToCSR()
	}
	shapes["diagonal"] = hand(37, func(int) []int { return nil })
	shapes["bidiagonal"] = hand(65, func(i int) []int {
		if i == 0 {
			return nil
		}
		return []int{i - 1}
	})
	shapes["arrow"] = hand(50, func(i int) []int {
		if i != 49 {
			return nil
		}
		all := make([]int, 49)
		for j := range all {
			all[j] = j
		}
		return all
	})
	shapes["one"] = hand(1, func(int) []int { return nil })
	return shapes
}

func sameInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// segShapes returns lower factors large enough that a block holds several
// segments: IC(0) factors of a grid Laplacian (the factor the segments exist
// for) and of irgen's random SPD matrices, banded and scattered.
func segShapes(t *testing.T) map[string]*sparse.CSR {
	t.Helper()
	shapes := map[string]*sparse.CSR{}
	factor := func(name string, a *sparse.COO) {
		ic, err := precond.Factorize(a.ToCSR())
		if err != nil || ic.Kind != precond.KindIC0 {
			t.Fatalf("%s: IC(0) failed: %v", name, err)
		}
		shapes[name] = ic.L
	}
	factor("grid48", matgen.SPDLaplacian(48*48, 1))
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		factor(fmt.Sprintf("spd%d-large", seed), irgen.RandomSPD(rng, 1100+rng.Intn(400), seed%2 == 0))
	}
	return shapes
}

// randomSegOrder returns a random topological order of the segment DAG.
func randomSegOrder(rng *rand.Rand, tri *sparse.BlockTri) []int {
	ns := len(tri.SegDeps)
	left := make([]int, ns)
	succ := make([][]int, ns)
	var ready, order []int
	for s, deps := range tri.SegDeps {
		left[s] = len(deps)
		for _, d := range deps {
			succ[d] = append(succ[d], s)
		}
		if left[s] == 0 {
			ready = append(ready, s)
		}
	}
	for len(ready) > 0 {
		k := rng.Intn(len(ready))
		s := ready[k]
		ready[k] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, s)
		for _, u := range succ[s] {
			if left[u]--; left[u] == 0 {
				ready = append(ready, u)
			}
		}
	}
	return order
}

func TestBlockTriProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	type shape struct {
		l      *sparse.CSR
		blocks func(n int) []int
		widths []int
	}
	shapes := map[string]shape{}
	for name, l := range triShapes(t) {
		shapes[name] = shape{l, func(n int) []int { return []int{1, 3, (n + 31) / 32, n} }, []int{1, 2, 3, 4, 5, 8, 9}}
	}
	// One segment (a block shorter than two), two, three and several per
	// block. At three, two segments of a block wait on different segments of
	// one other block, which Reads must list once.
	for name, l := range segShapes(t) {
		shapes[name] = shape{l, func(n int) []int {
			return []int{sparse.SegmentRows * 3 / 2, 2 * sparse.SegmentRows, 3 * sparse.SegmentRows, n}
		}, []int{1, 2, 3, 4, 5}}
	}
	for name, sh := range shapes {
		l := sh.l
		n := l.Rows
		for _, dir := range []struct {
			a     *sparse.CSR
			upper bool
		}{{l, false}, {l.Transpose(), true}} {
			a, upper := dir.a, dir.upper
			for _, block := range sh.blocks(n) {
				id := fmt.Sprintf("%s/upper=%v/block=%d", name, upper, block)
				var lv *precond.Levels
				if upper {
					lv = precond.AnalyzeUpper(a, block)
				} else {
					lv = precond.AnalyzeLower(a, block)
				}
				if lv.Err != nil {
					t.Fatalf("%s: %v", id, lv.Err)
				}
				tri := lv.Tri
				checkLayout(t, id, a, tri)
				checkSegments(t, id, tri)

				// (iii) the blocks each block reads, derived from the segment
				// dependencies, and the block levels are what the two retired
				// scans computed.
				want := frozenAnalyze(a, block, upper)
				if tri.NB != len(want.blockDeps) || lv.NumLevels != want.numLevels {
					t.Fatalf("%s: NB %d levels %d, frozen %d %d", id, tri.NB, lv.NumLevels, len(want.blockDeps), want.numLevels)
				}
				var reads []int32
				for bi := 0; bi < tri.NB; bi++ {
					reads = tri.Reads(reads[:0], bi)
					if !sameInt32(reads, want.blockDeps[bi]) || !sameInt32(reads, frozenBlockDeps(a, bi, block, upper)) {
						t.Fatalf("%s: block %d reads %v, frozen %v / %v", id, bi,
							reads, want.blockDeps[bi], frozenBlockDeps(a, bi, block, upper))
					}
				}

				// (ii) segment solves in a random dependency-respecting order
				// equal the CSR oracle, column by column, bit for bit.
				for _, w := range sh.widths {
					solve := func(x, b []float64) {
						for _, s := range randomSegOrder(rng, tri) {
							if w == 1 {
								tri.SolveSeg(x, b, s)
							} else {
								tri.SolveSegN(x, b, w, s)
							}
						}
					}
					b := make([]float64, n*w)
					for i := range b {
						b[i] = rng.NormFloat64()
					}
					x := make([]float64, n*w)
					for i := range x {
						x[i] = math.NaN() // a row read before it is solved poisons the result
					}
					solve(x, b)
					col, ref := make([]float64, n), make([]float64, n)
					for j := 0; j < w; j++ {
						for i := range col {
							col[i] = b[i*w+j]
						}
						if upper {
							a.UpperSolve(ref, col)
						} else {
							a.LowerSolve(ref, col)
						}
						for i := range ref {
							if math.Float64bits(ref[i]) != math.Float64bits(x[i*w+j]) {
								t.Fatalf("%s width %d: x[%d][%d] = %v, oracle %v", id, w, i, j, x[i*w+j], ref[i])
							}
						}
					}
					// In place (x == b), as the solver's z = U⁻¹·y may run.
					copy(x, b)
					solve(x, x)
					for i := range ref { // ref still holds the last column's oracle
						if math.Float64bits(ref[i]) != math.Float64bits(x[i*w+w-1]) {
							t.Fatalf("%s width %d in place: x[%d] = %v, oracle %v", id, w, i, x[i*w+w-1], ref[i])
						}
					}
				}
			}
		}
	}
}

// checkSegments is property (iv): the segments cut each block's positions
// into runs of SegmentRows (the last run of a block takes the remainder, and
// a block shorter than two runs is one), every dependency is one the segment
// needs — its predecessor in its block, or a segment of another block holding
// a row it reads — and SegOrder is a topological order of all of them.
func checkSegments(t *testing.T, id string, tri *sparse.BlockTri) {
	t.Helper()
	if len(tri.BlockSeg) != tri.NB+1 || tri.BlockSeg[0] != 0 || len(tri.Seg) != int(tri.BlockSeg[tri.NB])+1 ||
		len(tri.SegDeps) != len(tri.Seg)-1 || len(tri.SegOrder) != len(tri.SegDeps) || tri.Seg[len(tri.Seg)-1] != int32(tri.Rows) {
		t.Fatalf("%s: %d blocks, segment slices of %d/%d/%d/%d", id, tri.NB, len(tri.BlockSeg), len(tri.Seg), len(tri.SegDeps), len(tri.SegOrder))
	}
	blockOf := func(s int32) int { return int(tri.Seg[s]) / tri.Block }
	for bi := 0; bi < tri.NB; bi++ {
		rows := min(tri.Block, tri.Rows-bi*tri.Block)
		segs := int(tri.BlockSeg[bi+1] - tri.BlockSeg[bi])
		if segs != max(rows/sparse.SegmentRows, 1) {
			t.Fatalf("%s: block %d of %d rows has %d segments", id, bi, rows, segs)
		}
		for k, s := 0, tri.BlockSeg[bi]; s < tri.BlockSeg[bi+1]; k, s = k+1, s+1 {
			if lo := int(tri.Seg[s]); lo != bi*tri.Block+k*sparse.SegmentRows {
				t.Fatalf("%s: segment %d (block %d, #%d) starts at position %d", id, s, bi, k, lo)
			}
		}
	}
	reads := func(s, d int32) bool { // does segment s read a row stored in segment d?
		rows := map[int32]bool{}
		for _, r := range tri.Row[tri.Seg[d]:tri.Seg[d+1]] {
			rows[r] = true
		}
		for _, c := range tri.Col[tri.Ptr[tri.Seg[s]]:tri.Ptr[tri.Seg[s+1]]] {
			if rows[c] {
				return true
			}
		}
		return false
	}
	for s, deps := range tri.SegDeps {
		s := int32(s)
		first := s == tri.BlockSeg[blockOf(s)]
		if !first && (len(deps) == 0 || !slices.Contains(deps, s-1)) {
			t.Fatalf("%s: segment %d does not wait for its predecessor: %v", id, s, deps)
		}
		if !slices.IsSorted(deps) {
			t.Fatalf("%s: segment %d deps %v not ascending", id, s, deps)
		}
		for _, d := range deps {
			if d == s-1 && !first {
				continue
			}
			if blockOf(d) == blockOf(s) || !reads(s, d) {
				t.Fatalf("%s: segment %d waits for segment %d, which holds no row it reads", id, s, d)
			}
		}
	}
	done := make([]bool, len(tri.SegDeps))
	for _, s := range tri.SegOrder {
		for _, d := range tri.SegDeps[s] {
			if !done[d] {
				t.Fatalf("%s: SegOrder puts segment %d before its dependency %d", id, s, d)
			}
		}
		if done[s] {
			t.Fatalf("%s: SegOrder lists segment %d twice", id, s)
		}
		done[s] = true
	}
}

// checkLayout is property (i): each block's row list is a permutation of the
// block's rows in a topological order of the in-block row DAG, and the
// entries stored for a row are the factor's, in CSR order.
func checkLayout(t *testing.T, id string, a *sparse.CSR, tri *sparse.BlockTri) {
	t.Helper()
	n := a.Rows
	if tri.Rows != n || len(tri.Row) != n || len(tri.Diag) != n || len(tri.Ptr) != n+1 ||
		len(tri.Col) != a.NNZ()-n || len(tri.Val) != len(tri.Col) || tri.Ptr[n] != int64(len(tri.Col)) {
		t.Fatalf("%s: layout sizes do not match a %d-row, %d-entry factor", id, n, a.NNZ())
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for k, r := range tri.Row {
		i := int(r)
		if i/tri.Block != k/tri.Block || pos[i] != -1 {
			t.Fatalf("%s: position %d holds row %d (block %d, seen at %d)", id, k, i, i/tri.Block, pos[i])
		}
		pos[i] = k
	}
	for k, r := range tri.Row {
		i := int(r)
		q := tri.Ptr[k]
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			c := int(a.ColIdx[p])
			if c == i {
				if tri.Diag[k] != a.V[p] {
					t.Fatalf("%s: row %d diagonal %v, factor %v", id, i, tri.Diag[k], a.V[p])
				}
				continue
			}
			if int(tri.Col[q]) != c || tri.Val[q] != a.V[p] {
				t.Fatalf("%s: row %d entry %d is (%d, %v), factor (%d, %v)", id, i, q-tri.Ptr[k], tri.Col[q], tri.Val[q], c, a.V[p])
			}
			if c/tri.Block == i/tri.Block && pos[c] >= k {
				t.Fatalf("%s: row %d at position %d reads in-block row %d at position %d", id, i, k, c, pos[c])
			}
			q++
		}
		if q != tri.Ptr[k+1] {
			t.Fatalf("%s: row %d owns %d entries, factor %d", id, i, tri.Ptr[k+1]-tri.Ptr[k], q-tri.Ptr[k])
		}
	}
}
