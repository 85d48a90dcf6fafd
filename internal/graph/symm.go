package graph

import (
	"fmt"

	"sparsetask/internal/program"
	"sparsetask/internal/sparse"
)

// Symmetric SpMV expansion. Every stored SymCSB tile writes two row bands —
// band bi directly and band bj through the transposed scatter — so naive
// per-tile tasks would race on y. The matrix's cached SymSchedule resolves
// the conflict: tiles are pre-colored so that no two tiles of one color
// share a band. Tasks are emitted color by color; within a band, consecutive
// writers form a WAW chain (the generic addTask machinery), so waves surface
// as DAG ranks without explicit barriers and each band has one fixed
// accumulation order — the source of bit-identical results across all
// backends.
//
// Symmetric expansion always skips empty stored tiles: an empty tile
// contributes neither half, and the no-skip ablation targets the general
// path.
func (b *builder) expandSpMMSym(ci int32, c *program.Call) error {
	p := b.g.Prog
	a, ok := b.opt.Syms[c.A]
	if !ok {
		return fmt.Errorf("no SymCSB matrix attached for operand %d (Options.Syms)", c.A)
	}
	if a.NBR != p.NP {
		return fmt.Errorf("SymCSB tiling %d does not match program NP=%d", a.NBR, p.NP)
	}
	n := p.Op(c.Out).Cols

	// Bucket stored non-empty tiles by color in one pass ((bi-major, bj
	// ascending) within a bucket), then emit bucket by bucket so same-band
	// writers chain in wave order.
	type tileRef struct{ bi, bj int32 }
	buckets := make([][]tileRef, a.Sched.NumWaves)
	for bi := 0; bi < a.NBR; bi++ {
		for bj := 0; bj <= bi; bj++ {
			w := a.Sched.Wave[a.TileIndex(bi, bj)]
			if w >= 0 {
				buckets[w] = append(buckets[w], tileRef{int32(bi), int32(bj)})
			}
		}
	}
	seen := make([]bool, p.NP)
	for _, bucket := range buckets {
		for _, t := range bucket {
			bi, bj := int(t.bi), int(t.bj)
			nnz := a.TileNNZ(bi, bj)
			rows := int64(p.PartRows(bi))
			first := !seen[bi]
			seen[bi] = true
			reads := []Ref{
				{TileRegion(c.A, bi, bj, a.NBR), int64(nnz) * 16}, // 8B value + 8B packed coords
				{VecRegion(c.B, bj), int64(p.PartRows(bj)) * int64(n) * 8},
			}
			writes := []Ref{{VecRegion(c.Out, bi), rows * int64(n) * 8}}
			flops := 4 * int64(nnz) * int64(n)
			firstQ := false
			if bi != bj {
				firstQ = !seen[bj]
				seen[bj] = true
				reads = append(reads, Ref{VecRegion(c.B, bi), rows * int64(n) * 8})
				writes = append(writes, Ref{VecRegion(c.Out, bj), int64(p.PartRows(bj)) * int64(n) * 8})
				if !firstQ {
					reads = append(reads, writes[1])
				}
			} else {
				// True diagonal entries contribute once, not twice.
				flops -= 2 * int64(tileDiagNNZ(a, bi)) * int64(n)
			}
			if !first {
				reads = append(reads, writes[0])
			}
			b.addTask(Task{
				Kind: TSymTile, Call: ci, P: t.bi, Q: t.bj,
				First: first, FirstQ: firstQ,
				Flops: flops,
			}, reads, writes)
		}
	}
	b.zeroUnwritten(ci, c, seen, n)
	return nil
}

// zeroUnwritten emits a TSpMMZero for every output band no task wrote.
func (b *builder) zeroUnwritten(ci int32, c *program.Call, seen []bool, n int) {
	p := b.g.Prog
	for bi := 0; bi < p.NP; bi++ {
		if seen[bi] {
			continue
		}
		rows := int64(p.PartRows(bi))
		b.addTask(Task{
			Kind: TSpMMZero, Call: ci, P: int32(bi), Q: -1,
			Flops: rows * int64(n),
		}, nil, []Ref{{VecRegion(c.Out, bi), rows * int64(n) * 8}})
	}
}

// tileDiagNNZ counts true diagonal entries (local r == c) of diagonal tile
// bi: they contribute one product each where off-diagonal entries count two.
func tileDiagNNZ(a *sparse.SymCSB, bi int) int {
	k := a.TileIndex(bi, bi)
	n := 0
	for p := a.BlkPtr[k]; p < a.BlkPtr[k+1]; p++ {
		if a.RI[p] == a.CI[p] {
			n++
		}
	}
	return n
}
