package program

import (
	"testing"

	"sparsetask/internal/sparse"
)

func testProgram() (*Program, OperandID, OperandID, OperandID) {
	p := New(20, 5)
	a := p.Sparse("A")
	x := p.Vec("X", 2)
	y := p.Vec("Y", 2)
	return p, a, x, y
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive dims")
		}
	}()
	New(0, 4)
}

func TestPartitioning(t *testing.T) {
	p := New(22, 5)
	if p.NP != 5 {
		t.Fatalf("NP = %d, want 5", p.NP)
	}
	if p.PartRows(0) != 5 || p.PartRows(4) != 2 {
		t.Fatalf("part rows: %d, %d", p.PartRows(0), p.PartRows(4))
	}
	if p.PartRows(7) != 0 {
		t.Fatal("out-of-range partition should have 0 rows")
	}
}

func TestShapeChecking(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"spmm width mismatch", func() {
			p, a, x, _ := testProgram()
			bad := p.Vec("bad", 3)
			p.SpMM(bad, a, x)
		}},
		{"spmm wrong kind", func() {
			p, _, x, y := testProgram()
			p.SpMM(y, x, x) // x is a vec, not sparse
		}},
		{"gemm shape", func() {
			p, _, x, y := testProgram()
			z := p.Small("Z", 3, 3) // needs 2x2
			p.Gemm(y, 1, x, z, 0)
		}},
		{"gemmt shape", func() {
			p, _, x, y := testProgram()
			out := p.Small("O", 3, 2)
			p.GemmT(out, x, y)
		}},
		{"axpby width", func() {
			p, _, x, _ := testProgram()
			w := p.Vec("W", 1)
			p.Axpby(w, 1, x, 1, x)
		}},
		{"copy width", func() {
			p, _, x, _ := testProgram()
			w := p.Vec("W", 1)
			p.Copy(w, x)
		}},
		{"smallstep vec operand", func() {
			p, _, x, _ := testProgram()
			s := p.Scalar("s")
			p.SmallStep("bad", func(*Store) {}, []OperandID{x}, []OperandID{s})
		}},
		{"smallstep no outputs", func() {
			p, _, _, _ := testProgram()
			s := p.Scalar("s")
			p.SmallStep("bad", func(*Store) {}, []OperandID{s}, nil)
		}},
		{"index launch without calls", func() {
			p := New(8, 4)
			p.MarkIndexLaunch()
		}},
		{"vec zero width", func() {
			p := New(8, 4)
			p.Vec("bad", 0)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			c.fn()
		})
	}
}

func TestBuilderChainAndKinds(t *testing.T) {
	p, a, x, y := testProgram()
	s := p.Scalar("nrm")
	z := p.Small("Z", 2, 2)
	p.SpMM(y, a, x).Gemm(x, 1, y, z, 0).MarkIndexLaunch().Norm(s, y).ScaleInv(x, y, s)
	if len(p.Calls) != 4 {
		t.Fatalf("%d calls, want 4", len(p.Calls))
	}
	if !p.Calls[1].IndexLaunch {
		t.Error("MarkIndexLaunch did not flag the Gemm call")
	}
	if p.Calls[2].Kind != CDot || !p.Calls[2].Sqrt {
		t.Error("Norm should be a CDot with Sqrt")
	}
	if got := p.Op(a).Kind; got != OpSparse {
		t.Errorf("operand kind = %v", got)
	}
}

func TestStoreAllocation(t *testing.T) {
	p, a, x, y := testProgram()
	pr := p.Small("P", 2, 2)
	sc := p.Scalar("s")
	p.SpMM(y, a, x)
	p.GemmT(pr, x, y)
	p.Dot(sc, x, y)
	st := NewStore(p)
	if len(st.Vec[x]) != 20*2 {
		t.Fatalf("vec X len %d", len(st.Vec[x]))
	}
	if len(st.Small[pr]) != 4 {
		t.Fatalf("small P len %d", len(st.Small[pr]))
	}
	// Partials preallocated for GemmT (call 1) and Dot (call 2).
	if got := len(st.Partial(1, 0)); got != 4 {
		t.Fatalf("GemmT partial size %d", got)
	}
	if got := len(st.Partial(2, 3)); got != 1 {
		t.Fatalf("Dot partial size %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing partial")
		}
	}()
	st.Partial(0, 0)
}

func TestStoreSetSparseValidation(t *testing.T) {
	p, a, x, _ := testProgram()
	st := NewStore(p)
	coo := sparse.NewCOO(20, 20, 1)
	coo.Append(0, 0, 1)

	t.Run("wrong block", func(t *testing.T) {
		defer expectPanic(t)
		st.SetSparse(a, coo.ToCSB(7))
	})
	t.Run("wrong operand kind", func(t *testing.T) {
		defer expectPanic(t)
		st.SetSparse(x, coo.ToCSB(5))
	})
	t.Run("wrong rows", func(t *testing.T) {
		defer expectPanic(t)
		small := sparse.NewCOO(10, 10, 1)
		small.Append(0, 0, 1)
		st.SetSparse(a, small.ToCSB(5))
	})
	st.SetSparse(a, coo.ToCSB(5)) // correct attach must not panic
}

func expectPanic(t *testing.T) {
	t.Helper()
	if recover() == nil {
		t.Error("expected panic")
	}
}

func TestVecPart(t *testing.T) {
	p := New(22, 5)
	x := p.Vec("X", 3)
	st := NewStore(p)
	if got := len(st.VecPart(x, 0)); got != 15 {
		t.Fatalf("part 0 len %d, want 15", got)
	}
	if got := len(st.VecPart(x, 4)); got != 6 {
		t.Fatalf("edge part len %d, want 6 (2 rows x 3)", got)
	}
	// Parts must alias the backing array.
	st.VecPart(x, 1)[0] = 42
	if st.Vec[x][15] != 42 {
		t.Fatal("VecPart does not alias backing storage")
	}
}

func TestOpKindStrings(t *testing.T) {
	for k, want := range map[OpKind]string{OpSparse: "sparse", OpVec: "vec", OpSmall: "small", OpScalar: "scalar"} {
		if k.String() != want {
			t.Errorf("%v != %s", k, want)
		}
	}
	for k, want := range map[CallKind]string{CSpMM: "SpMM", CGemm: "XY", CGemmT: "XTY", CAxpby: "AXPBY", CScaleInv: "SCALE", CDot: "DOT", CSmall: "SMALL", CCopy: "COPY"} {
		if k.String() != want {
			t.Errorf("%v != %s", k, want)
		}
	}
}
