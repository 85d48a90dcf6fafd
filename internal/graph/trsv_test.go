package graph

import (
	"strings"
	"testing"

	"sparsetask/internal/program"
	"sparsetask/internal/sparse"
)

// bidiagonalLower builds an n×n lower factor with diagonal 2 and subdiagonal
// -1: a pure dependency chain, the worst-case skewed level structure.
func bidiagonalLower(n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, 2*n)
	for i := 0; i < n; i++ {
		if i > 0 {
			coo.Append(int32(i), int32(i-1), -1)
		}
		coo.Append(int32(i), int32(i), 2)
	}
	return coo.ToCSR()
}

func mustBlockTri(t *testing.T, a *sparse.CSR, block int, upper bool) *sparse.BlockTri {
	t.Helper()
	tri, err := sparse.NewBlockTri(a, block, upper)
	if err != nil {
		t.Fatal(err)
	}
	return tri
}

func TestExpandSpTrsvChain(t *testing.T) {
	n := 12
	l := bidiagonalLower(n)
	p := program.New(n, 3)
	opL := p.Tri("L")
	opB := p.Vec("b", 1)
	opY := p.Vec("y", 1)
	p.SpTrsvLower(opY, opL, opB)
	g, err := Build(p, nil, Options{SkipEmpty: true, Tris: map[program.OperandID]*sparse.BlockTri{opL: mustBlockTri(t, l, 3, false)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Tasks) != p.NP {
		t.Fatalf("%d tasks, want %d (one per row block)", len(g.Tasks), p.NP)
	}
	// The subdiagonal couples adjacent blocks, so the tasks form a chain:
	// critical path = NP, one root.
	st := g.ComputeStats()
	if st.CriticalPath != p.NP {
		t.Fatalf("critical path %d, want %d", st.CriticalPath, p.NP)
	}
	if len(g.Roots) != 1 {
		t.Fatalf("%d roots, want 1", len(g.Roots))
	}
	if len(st.LevelWidths) != p.NP {
		t.Fatalf("LevelWidths has %d levels, want %d", len(st.LevelWidths), p.NP)
	}
	for i, w := range st.LevelWidths {
		if w != 1 {
			t.Fatalf("level %d width %d, want 1", i, w)
		}
	}
	for i := range g.Tasks {
		if g.Tasks[i].Kind != TTrsv {
			t.Fatalf("task %d is %v, want TRSV", i, g.Tasks[i].Kind)
		}
	}
}

func TestExpandSpTrsvMissingFactor(t *testing.T) {
	p := program.New(8, 2)
	opL := p.Tri("L")
	opB := p.Vec("b", 1)
	opY := p.Vec("y", 1)
	p.SpTrsvLower(opY, opL, opB)
	if _, err := Build(p, nil, Options{SkipEmpty: true}); err == nil {
		t.Fatal("expected error when Options.Tris is missing the factor")
	}
}

// TestExpandSpTrsvMismatchedLayout: a layout cut at another block size, or
// built for the other substitution direction, is refused by Build rather than
// expanded into a graph whose edges belong to a different solve.
func TestExpandSpTrsvMismatchedLayout(t *testing.T) {
	l := bidiagonalLower(8)
	p := program.New(8, 2)
	opL := p.Tri("L")
	opB := p.Vec("b", 1)
	opY := p.Vec("y", 1)
	p.SpTrsvLower(opY, opL, opB)
	for name, tri := range map[string]*sparse.BlockTri{
		"block":     mustBlockTri(t, l, 4, false),
		"direction": mustBlockTri(t, l.Transpose(), 2, true),
	} {
		opt := Options{SkipEmpty: true, Tris: map[program.OperandID]*sparse.BlockTri{opL: tri}}
		if _, err := Build(p, nil, opt); err == nil {
			t.Fatalf("%s mismatch: expected an error", name)
		}
	}
}

// TestLevelHistogramBuckets: a deep chain graph must render as a capped,
// bucketed histogram, never one line per level.
func TestLevelHistogramBuckets(t *testing.T) {
	n := 3000
	l := bidiagonalLower(n)
	p := program.New(n, 1)
	opL := p.Tri("L")
	opB := p.Vec("b", 1)
	opY := p.Vec("y", 1)
	p.SpTrsvLower(opY, opL, opB)
	g, err := Build(p, nil, Options{SkipEmpty: true, Tris: map[program.OperandID]*sparse.BlockTri{opL: mustBlockTri(t, l, 1, false)}})
	if err != nil {
		t.Fatal(err)
	}
	st := g.ComputeStats()
	if len(st.LevelWidths) != n {
		t.Fatalf("expected %d levels, got %d", n, len(st.LevelWidths))
	}
	const maxRows = 24
	h := st.LevelHistogram(maxRows)
	lines := strings.Count(h, "\n")
	if lines > maxRows+1 { // +1 header
		t.Fatalf("histogram has %d lines for a %d-level graph, cap is %d", lines, n, maxRows+1)
	}
	if !strings.Contains(h, "3000 levels") {
		t.Fatalf("header missing level count:\n%s", h)
	}
	// Every task must be accounted for across the buckets.
	total := 0
	for _, w := range st.LevelWidths {
		total += w
	}
	if total != len(g.Tasks) {
		t.Fatalf("level widths sum to %d, want %d tasks", total, len(g.Tasks))
	}
}

func TestLevelHistogramSmallGraph(t *testing.T) {
	// Fewer levels than rows: one line per level with width bars.
	s := Stats{LevelWidths: []int{4, 4, 1}, MaxWidth: 4}
	h := s.LevelHistogram(10)
	if strings.Count(h, "\n") != 4 {
		t.Fatalf("want header + 3 level lines:\n%s", h)
	}
	if !strings.Contains(h, "3 levels, max width 4") {
		t.Fatalf("bad header:\n%s", h)
	}
}

func TestLevelHistogramEmpty(t *testing.T) {
	var s Stats
	if got := s.LevelHistogram(10); !strings.Contains(got, "empty") {
		t.Fatalf("empty stats rendered %q", got)
	}
}
