package matgen

import (
	"testing"

	"sparsetask/internal/sparse"
)

func TestFEM3DStructure(t *testing.T) {
	a := FEM3D(5, 5, 5, 3, 27, 1)
	if a.Rows != 375 {
		t.Fatalf("rows = %d, want 375", a.Rows)
	}
	if !a.IsSymmetric() {
		t.Fatal("FEM3D not symmetric")
	}
	st := sparse.ComputeStats(a.ToCSR())
	// Interior rows have 27·3 = 81 entries; boundary fewer.
	if st.MaxRowNNZ != 81 {
		t.Errorf("max nnz/row = %d, want 81", st.MaxRowNNZ)
	}
	if st.AvgRowNNZ < 40 || st.AvgRowNNZ > 81 {
		t.Errorf("avg nnz/row = %v out of range", st.AvgRowNNZ)
	}
}

func TestFEM3DSevenPoint(t *testing.T) {
	a := FEM3D(4, 4, 4, 2, 7, 2)
	if !a.IsSymmetric() {
		t.Fatal("not symmetric")
	}
	st := sparse.ComputeStats(a.ToCSR())
	if st.MaxRowNNZ > 14 {
		t.Errorf("7-pt dof=2 max nnz/row = %d, want <= 14", st.MaxRowNNZ)
	}
}

func TestFEM3DBadStencilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FEM3D(2, 2, 2, 1, 5, 0)
}

func TestKKTStructure(t *testing.T) {
	a := KKT(6, 3)
	if a.Rows != 2*216 {
		t.Fatalf("rows = %d, want 432", a.Rows)
	}
	if !a.IsSymmetric() {
		t.Fatal("KKT not symmetric")
	}
	st := sparse.ComputeStats(a.ToCSR())
	if st.AvgRowNNZ < 5 || st.AvgRowNNZ > 30 {
		t.Errorf("avg nnz/row = %v, want KKT-like (5..30)", st.AvgRowNNZ)
	}
}

func TestRMATPowerLaw(t *testing.T) {
	a := RMAT(1024, 8, 0.6, 7)
	if !a.IsSymmetric() {
		t.Fatal("RMAT not symmetric after Symmetrize")
	}
	st := sparse.ComputeStats(a.ToCSR())
	// Power-law graphs must show strong skew — this is what drives the BSP
	// load imbalance in the paper.
	if st.Imbalance < 5 {
		t.Errorf("imbalance = %v, want >= 5 for a power-law graph", st.Imbalance)
	}
	for _, v := range a.V {
		if v <= 0 || v > 1 {
			t.Fatalf("value %v outside (0,1] after FillRandom", v)
		}
	}
}

func TestRMATSkewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad skew")
		}
	}()
	RMAT(64, 4, 0.1, 0)
}

func TestBandCFDStructure(t *testing.T) {
	a := BandCFD(2000, 40, 100, 11)
	if !a.IsSymmetric() {
		t.Fatal("BandCFD not symmetric")
	}
	st := sparse.ComputeStats(a.ToCSR())
	if st.Bandwidth > 100 {
		t.Errorf("bandwidth = %d, want <= 100", st.Bandwidth)
	}
	if st.AvgRowNNZ < 10 {
		t.Errorf("avg nnz/row = %v, too sparse for CFD class", st.AvgRowNNZ)
	}
}

func TestBlockCIStructure(t *testing.T) {
	a := BlockCI(1024, 32, 4, 13)
	if !a.IsSymmetric() {
		t.Fatal("BlockCI not symmetric")
	}
	st := sparse.ComputeStats(a.ToCSR())
	if st.AvgRowNNZ < 20 {
		t.Errorf("avg nnz/row = %v, want dense-ish blocks", st.AvgRowNNZ)
	}
}

func TestTraceGraphSkew(t *testing.T) {
	a := TraceGraph(5000, 2.1, 17)
	if !a.IsSymmetric() {
		t.Fatal("TraceGraph not symmetric")
	}
	st := sparse.ComputeStats(a.ToCSR())
	if st.AvgRowNNZ > 12 {
		t.Errorf("avg nnz/row = %v, want mawi-like sparsity", st.AvgRowNNZ)
	}
	if st.Imbalance < 20 {
		t.Errorf("imbalance = %v, want extreme hub skew", st.Imbalance)
	}
}

func TestSuiteComplete(t *testing.T) {
	suite := Suite()
	if len(suite) != 15 {
		t.Fatalf("suite has %d matrices, want 15", len(suite))
	}
	// Paper rows must be strictly increasing down Table 1.
	for i := 1; i < len(suite); i++ {
		if suite[i].PaperRows <= suite[i-1].PaperRows {
			t.Errorf("suite order broken at %s", suite[i].Name)
		}
	}
}

func TestSuiteBuildTiny(t *testing.T) {
	for _, s := range Suite() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			a := s.Build(Tiny, 1)
			if a.Rows < 100 {
				t.Fatalf("rows = %d, degenerate", a.Rows)
			}
			if a.NNZ() == 0 {
				t.Fatal("no nonzeros")
			}
			if !a.IsSymmetric() {
				t.Fatal("suite matrix must be symmetric")
			}
		})
	}
}

func TestSpecByName(t *testing.T) {
	if _, err := SpecByName("nlpkkt240"); err != nil {
		t.Fatal(err)
	}
	if _, err := SpecByName("nosuch"); err == nil {
		t.Fatal("expected error")
	}
}

func TestPresetByName(t *testing.T) {
	for _, n := range []string{"tiny", "small", "medium"} {
		if _, err := PresetByName(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := PresetByName("huge"); err == nil {
		t.Fatal("expected error")
	}
}

func TestTargetRowsScaling(t *testing.T) {
	s, _ := SpecByName("mawi_201512020130")
	if s.TargetRows(Tiny) >= s.TargetRows(Small) {
		t.Error("tiny preset should be smaller than small preset")
	}
	tiny, _ := SpecByName("inline1")
	if tiny.TargetRows(Tiny) != Tiny.MinRows {
		t.Errorf("small matrix should clamp to MinRows, got %d", tiny.TargetRows(Tiny))
	}
}

func TestSPDLaplacianStructure(t *testing.T) {
	const n = 5000
	a := SPDLaplacian(n, 3)
	if a.Rows != n || a.Cols != n {
		t.Fatalf("shape %dx%d, want %dx%d", a.Rows, a.Cols, n, n)
	}
	csr := a.ToCSR()
	// Symmetric with a strictly dominant diagonal on every row — the
	// certificate of positive definiteness the convergence tests rely on.
	for i := 0; i < n; i++ {
		var diag, off float64
		for p := csr.RowPtr[i]; p < csr.RowPtr[i+1]; p++ {
			j := int(csr.ColIdx[p])
			v := csr.V[p]
			if j == i {
				diag = v
			} else {
				off += -v // off-diagonals are negative couplings
				if v >= 0 {
					t.Fatalf("row %d: off-diagonal (%d,%d)=%g not negative", i, i, j, v)
				}
			}
		}
		if diag <= off {
			t.Fatalf("row %d: diagonal %g not dominant over %g", i, diag, off)
		}
	}
	if !a.IsSymmetric() {
		t.Fatal("SPDLaplacian not symmetric")
	}
}
