package precond

import "sparsetask/internal/sparse"

// Levels is the substitution analysis of a triangular factor at a row-block
// size: the factor in the layout the TTrsv tasks solve on, and the depth of
// its block dependencies.
//
// The analysis follows the ilu_solve level-scheduling exemplar at two
// granularities. Inside each block, Tri stores the rows level by level so the
// kernel streams them. Across blocks, Tri cuts each block's level-ordered rows
// into segments, and the segment dependencies (sparse.BlockTri.SegDeps) are
// the factor's one dependency structure: the graph package turns them into
// TDG edges, so the substitution runs as a wavefront over blocks and segments
// on the task runtimes. NumLevels still counts blocks.
type Levels struct {
	Block int // rows per block (last block may be short)
	// Tri is the factor in the substitution layout, with its segments.
	Tri *sparse.BlockTri
	// NumLevels is the length of the longest chain of blocks: a block's level
	// is one past the deepest level among the blocks it reads.
	NumLevels int
	// Err is why the factor cannot be solved (sparse.NewBlockTri's
	// validation); the analysis is empty then, and the PCG constructors and
	// solverd's operator cache refuse such levels with this error.
	Err error
}

// AnalyzeLower analyses the forward solve with the lower-triangular factor l:
// row i reads x[c] for stored columns c < i, so a block waits for earlier
// blocks.
func AnalyzeLower(l *sparse.CSR, block int) *Levels {
	return analyze(l, block, false)
}

// AnalyzeUpper analyses the backward solve with the upper-triangular factor
// u: row i reads x[c] for stored columns c > i, so a block waits for later
// blocks.
func AnalyzeUpper(u *sparse.CSR, block int) *Levels {
	return analyze(u, block, true)
}

func analyze(a *sparse.CSR, block int, upper bool) *Levels {
	tri, err := sparse.NewBlockTri(a, block, upper)
	if err != nil {
		return &Levels{Block: block, Err: err}
	}
	lv := &Levels{Block: block, Tri: tri}
	// One pass over the blocks in substitution order: ascending for the
	// forward solve, descending for the backward solve, whose blocks read
	// later ones.
	level := make([]int32, tri.NB)
	var reads []int32
	for k := 0; k < tri.NB; k++ {
		bi := k
		if upper {
			bi = tri.NB - 1 - k
		}
		reads = tri.Reads(reads[:0], bi)
		for _, j := range reads {
			level[bi] = max(level[bi], level[j]+1)
		}
		lv.NumLevels = max(lv.NumLevels, int(level[bi])+1)
	}
	return lv
}
