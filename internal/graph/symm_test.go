package graph

import (
	"math/rand"
	"testing"

	"sparsetask/internal/program"
	"sparsetask/internal/sparse"
)

// symProblem builds Y = A·X over symmetric storage: a program with one
// CSpMMSym call plus the SymCSB conversion of the given COO matrix.
func symProblem(t *testing.T, coo *sparse.COO, block, n int) (*TDG, *sparse.SymCSB) {
	t.Helper()
	sym, err := coo.ToSymCSB(block)
	if err != nil {
		t.Fatal(err)
	}
	p := program.New(coo.Rows, block)
	A := p.SymSparse("A")
	X := p.Vec("X", n)
	Y := p.Vec("Y", n)
	p.SpMMSym(Y, A, X)
	opt := DefaultOptions()
	opt.Syms = map[program.OperandID]*sparse.SymCSB{A: sym}
	g, err := Build(p, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g, sym
}

func bandedSymCOO(n int) *sparse.COO {
	a := sparse.NewCOO(n, n, 0)
	for i := 0; i < n; i++ {
		a.Append(int32(i), int32(i), 4)
		if i > 0 {
			a.Append(int32(i), int32(i-1), -1)
			a.Append(int32(i-1), int32(i), -1)
		}
	}
	a.Compact()
	return a
}

func arrowheadSymCOO(n int) *sparse.COO {
	a := sparse.NewCOO(n, n, 0)
	for i := 0; i < n; i++ {
		a.Append(int32(i), int32(i), 4)
		if i > 0 {
			a.Append(int32(i), 0, 1)
			a.Append(0, int32(i), 1)
		}
	}
	a.Compact()
	return a
}

// Banded and arrowhead storage alike expand to one task per stored
// non-empty tile, and any two tasks that write a common output band are
// ordered by the band's WAW chain — the arrowhead's band 0 is written by
// every tile row, a chain one wave long per tile row.
func TestSymExpansionWaveMode(t *testing.T) {
	for name, coo := range map[string]*sparse.COO{"banded": bandedSymCOO(96), "arrowhead": arrowheadSymCOO(128)} {
		g, sym := symProblem(t, coo, 8, 1)
		nTile := 0
		for i := range g.Tasks {
			if g.Tasks[i].Kind == TSymTile {
				nTile++
			}
		}
		if want := sym.NonEmptyTiles(); nTile != want {
			t.Fatalf("%s: TSymTile tasks = %d, want one per stored non-empty tile (%d)", name, nTile, want)
		}
		// Band-conflict safety: consecutive writers of a band must share an
		// edge.
		writers := make([][]int32, sym.NBR)
		for i := range g.Tasks {
			tk := &g.Tasks[i]
			if tk.Kind != TSymTile {
				continue
			}
			writers[tk.P] = append(writers[tk.P], tk.ID)
			if tk.Q != tk.P {
				writers[tk.Q] = append(writers[tk.Q], tk.ID)
			}
		}
		hasDep := func(task, dep int32) bool {
			for _, d := range g.Tasks[task].Deps {
				if d == dep {
					return true
				}
			}
			return false
		}
		for band, w := range writers {
			for k := 1; k < len(w); k++ {
				if !hasDep(w[k], w[k-1]) {
					t.Fatalf("%s: band %d: writer task %d does not depend on previous writer %d", name, band, w[k], w[k-1])
				}
			}
		}
	}
}

func TestSymExpansionZeroesEmptyBands(t *testing.T) {
	// Matrix with an entirely empty middle band: the expansion must still
	// zero that output band.
	n, block := 24, 8
	a := sparse.NewCOO(n, n, 0)
	for i := 0; i < n; i++ {
		if i >= block && i < 2*block {
			continue
		}
		a.Append(int32(i), int32(i), 2)
	}
	a.Compact()
	g, _ := symProblem(t, a, block, 1)
	found := false
	for i := range g.Tasks {
		if g.Tasks[i].Kind == TSpMMZero && g.Tasks[i].P == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("empty band 1 got no TSpMMZero task")
	}
}

func TestSymExpansionRequiresAttachedMatrix(t *testing.T) {
	p := program.New(16, 8)
	A := p.SymSparse("A")
	X := p.Vec("X", 1)
	Y := p.Vec("Y", 1)
	p.SpMMSym(Y, A, X)
	if _, err := Build(p, nil, DefaultOptions()); err == nil {
		t.Fatal("Build without Options.Syms succeeded")
	}
}

func TestSymFusePreservesSymTasks(t *testing.T) {
	// Fusion must carry Syms through and never fold sym kinds into chains.
	rng := rand.New(rand.NewSource(1))
	n, block := 64, 8
	a := sparse.NewCOO(n, n, 0)
	for i := 0; i < n; i++ {
		a.Append(int32(i), int32(i), 4+rng.Float64())
		if i > 0 {
			a.Append(int32(i), int32(i-1), -1)
			a.Append(int32(i-1), int32(i), -1)
		}
	}
	a.Compact()
	g, _ := symProblem(t, a, block, 1)
	f := Fuse(g)
	if f.Syms == nil {
		t.Fatal("Fuse dropped the Syms map")
	}
	for i := range f.Tasks {
		if f.Tasks[i].Kind == TSymTile && len(f.Tasks[i].Parts) > 1 {
			t.Fatal("TSymTile was fused into a chain")
		}
	}
}
