package precond_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sparsetask/internal/irgen"
	"sparsetask/internal/precond"
	"sparsetask/internal/sparse"
)

// The block substitution layout (sparse.BlockTri) as a property, against
// frozen copies of what it replaced: the row-range kernels' results are the
// CSR oracles', and the dependency lists are those of the old
// precond.analyze and graph.blockDeps scans, kept below verbatim.

// frozenLevels is the pre-BlockTri precond.analyze.
func frozenLevels(a *sparse.CSR, block int, upper bool) *precond.Levels {
	n := a.Rows
	nb := (n + block - 1) / block
	lv := &precond.Levels{
		Block:     block,
		NB:        nb,
		BlockDeps: make([][]int32, nb),
		LevelOf:   make([]int32, nb),
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
		lv.BlockDeps[bi] = deps
	}
	for k := 0; k < nb; k++ {
		bi := k
		if upper {
			bi = nb - 1 - k
		}
		level := int32(0)
		for _, j := range lv.BlockDeps[bi] {
			if d := lv.LevelOf[j] + 1; d > level {
				level = d
			}
		}
		lv.LevelOf[bi] = level
		if int(level)+1 > lv.NumLevels {
			lv.NumLevels = int(level) + 1
		}
	}
	lv.Widths = make([]int, lv.NumLevels)
	for _, l := range lv.LevelOf {
		lv.Widths[l]++
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

// randomBlockOrder returns a random topological order of the block DAG.
func randomBlockOrder(rng *rand.Rand, tri *sparse.BlockTri) []int {
	left := make([]int, tri.NB)
	succ := make([][]int, tri.NB)
	var ready, order []int
	for bi, deps := range tri.Deps {
		left[bi] = len(deps)
		for _, j := range deps {
			succ[j] = append(succ[j], bi)
		}
		if left[bi] == 0 {
			ready = append(ready, bi)
		}
	}
	for len(ready) > 0 {
		k := rng.Intn(len(ready))
		bi := ready[k]
		ready[k] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, bi)
		for _, s := range succ[bi] {
			if left[s]--; left[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return order
}

func TestBlockTriProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for name, l := range triShapes(t) {
		n := l.Rows
		for _, dir := range []struct {
			a     *sparse.CSR
			upper bool
		}{{l, false}, {l.Transpose(), true}} {
			a, upper := dir.a, dir.upper
			for _, block := range []int{1, 3, (n + 31) / 32, n} {
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

				// (iii) dependency lists and block levels are what the two
				// retired scans computed.
				want := frozenLevels(a, block, upper)
				if lv.NB != want.NB || lv.NumLevels != want.NumLevels || len(lv.Widths) != len(want.Widths) {
					t.Fatalf("%s: NB %d levels %d, frozen %d %d", id, lv.NB, lv.NumLevels, want.NB, want.NumLevels)
				}
				for l := range want.Widths {
					if lv.Widths[l] != want.Widths[l] {
						t.Fatalf("%s: Widths %v, frozen %v", id, lv.Widths, want.Widths)
					}
				}
				if !sameInt32(lv.LevelOf, want.LevelOf) {
					t.Fatalf("%s: LevelOf %v, frozen %v", id, lv.LevelOf, want.LevelOf)
				}
				for bi := 0; bi < lv.NB; bi++ {
					if !sameInt32(lv.BlockDeps[bi], want.BlockDeps[bi]) || !sameInt32(tri.Deps[bi], frozenBlockDeps(a, bi, block, upper)) {
						t.Fatalf("%s: block %d deps %v / %v, frozen %v / %v", id, bi,
							lv.BlockDeps[bi], tri.Deps[bi], want.BlockDeps[bi], frozenBlockDeps(a, bi, block, upper))
					}
				}

				// (ii) block solves in a random dependency-respecting order
				// equal the CSR oracle, column by column, bit for bit.
				for _, w := range []int{1, 2, 3, 4, 5, 8, 9} {
					b := make([]float64, n*w)
					for i := range b {
						b[i] = rng.NormFloat64()
					}
					x := make([]float64, n*w)
					for i := range x {
						x[i] = math.NaN() // a row read before it is solved poisons the result
					}
					for _, bi := range randomBlockOrder(rng, tri) {
						if w == 1 {
							tri.SolveBlock(x, b, bi)
						} else {
							tri.SolveBlockN(x, b, w, bi)
						}
					}
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
					for _, bi := range randomBlockOrder(rng, tri) {
						if w == 1 {
							tri.SolveBlock(x, x, bi)
						} else {
							tri.SolveBlockN(x, x, w, bi)
						}
					}
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
