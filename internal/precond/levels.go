package precond

import "sparsetask/internal/sparse"

// Levels is the level-scheduling analysis of a triangular factor at row-block
// granularity: block bi depends on every other block that owns a column its
// rows reference, and its level is one past the deepest dependency. One level
// is one rank of independent tasks; the graph package turns BlockDeps into
// TDG edges so the substitution runs wavefront-parallel on the task runtimes.
//
// The analysis follows the ilu_solve level-scheduling exemplar twice over:
// across blocks, lifted from single rows to row blocks so task granularity
// matches the rest of the system (and so affinity stamps compose with the
// topology layer); and inside each block, where Tri stores the block's rows
// level by level so the task's kernel streams them.
type Levels struct {
	Block int // rows per block (last block may be short)
	NB    int // number of row blocks
	// Tri is the factor in the substitution layout the TTrsv tasks solve on,
	// built by the same pass that finds BlockDeps (which alias Tri.Deps).
	Tri       *sparse.BlockTri
	BlockDeps [][]int32 // per-block sorted list of prerequisite blocks (excl. self)
	LevelOf   []int32   // per-block level, 0-based
	NumLevels int
	Widths    []int // blocks per level; len NumLevels
	// Err is why the factor cannot be solved (sparse.NewBlockTri's
	// validation); the analysis is empty then, and the PCG constructors and
	// solverd's operator cache refuse such levels with this error.
	Err error
}

// AnalyzeLower computes the level structure of the forward solve with the
// lower-triangular factor l: row i reads x[c] for stored columns c < i, so a
// block depends on every earlier block owning such a column.
func AnalyzeLower(l *sparse.CSR, block int) *Levels {
	return analyze(l, block, false)
}

// AnalyzeUpper computes the level structure of the backward solve with the
// upper-triangular factor u: row i reads x[c] for stored columns c > i, so a
// block depends on every later block owning such a column.
func AnalyzeUpper(u *sparse.CSR, block int) *Levels {
	return analyze(u, block, true)
}

func analyze(a *sparse.CSR, block int, upper bool) *Levels {
	tri, err := sparse.NewBlockTri(a, block, upper)
	if err != nil {
		return &Levels{Block: block, Err: err}
	}
	nb := tri.NB
	lv := &Levels{
		Block:     block,
		NB:        nb,
		Tri:       tri,
		BlockDeps: tri.Deps,
		LevelOf:   make([]int32, nb),
	}
	// Levels must be assigned in dependency order: ascending blocks for the
	// forward solve, descending for the backward solve (whose deps point at
	// later blocks).
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

// CriticalPath returns the number of levels — the length of the longest
// dependency chain and hence the lower bound on wavefronts regardless of
// worker count.
func (lv *Levels) CriticalPath() int { return lv.NumLevels }

// MaxWidth returns the widest level: the peak parallelism the schedule
// exposes.
func (lv *Levels) MaxWidth() int {
	m := 0
	for _, w := range lv.Widths {
		if w > m {
			m = w
		}
	}
	return m
}
