package sparse

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestReadMatrixMarketGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 1 2.5
2 1 -1
3 3 4
1 3 0.5
`
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != 3 || a.Cols != 3 || a.NNZ() != 4 {
		t.Fatalf("got %dx%d nnz=%d", a.Rows, a.Cols, a.NNZ())
	}
	d := denseOf(a)
	if d[0][0] != 2.5 || d[1][0] != -1 || d[2][2] != 4 || d[0][2] != 0.5 {
		t.Fatalf("wrong values: %v", d)
	}
}

func TestReadMatrixMarketSymmetricExpansion(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 1
2 1 5
3 3 2
`
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 4 { // off-diagonal mirrored, diagonals not
		t.Fatalf("NNZ = %d, want 4", a.NNZ())
	}
	if !a.IsSymmetric() {
		t.Fatal("expanded matrix not symmetric")
	}
}

func TestReadMatrixMarketPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
`
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range a.V {
		if v != 1.0 {
			t.Fatalf("pattern value = %v, want 1", v)
		}
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"badheader", "%%MatrixMarket matrix array real general\n2 2\n"},
		{"badfield", "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n"},
		{"badsym", "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n"},
		{"short", "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.0\n"},
		{"badvalue", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 xyz\n"},
		{"badindex", "%%MatrixMarket matrix coordinate real general\n1 1 1\nx 1 1.0\n"},
	}
	for _, c := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error, got nil", c.name)
		}
	}
}

// A non-finite value is refused in whatever spelling strconv accepts, with
// the entry named; finite neighbours and the symmetric expansion change
// nothing about that.
func TestReadMatrixMarketRefusesNonFinite(t *testing.T) {
	for _, v := range []string{"nan", "NaN", "-Inf", "+inf", "INF", "infinity", "-Infinity", "iNfInItY", "nAn"} {
		for _, sym := range []string{"general", "symmetric"} {
			doc := "%%MatrixMarket matrix coordinate real " + sym + "\n4 4 3\n1 1 2\n3 3 " + v + "\n4 4 1\n"
			_, err := ReadMatrixMarket(strings.NewReader(doc))
			want := `sparse: non-finite value "` + v + `" at MatrixMarket entry (3,3)`
			if err == nil || err.Error() != want {
				t.Errorf("%s %s: err %v, want %q", sym, v, err, want)
			}
		}
	}
	// An overflowing literal was already a range error, and stays one.
	if _, err := ReadMatrixMarket(strings.NewReader(mmHead + "1 1 1\n1 1 1e999\n")); err == nil || !strings.Contains(err.Error(), "bad value") {
		t.Errorf("1e999: err %v, want a bad value", err)
	}
}

// The header reader stops at the size line: what is wrong further on is the
// parser's to find, while a bad banner or size line is refused by both.
func TestReadMatrixMarketHeader(t *testing.T) {
	for _, entries := range []string{"1 1 nan\n2 2 1\n", "9 9 1\n2 2 1\n", "1 1\n2 2 1\n", "1 1 1\n", ""} {
		doc := "%%MatrixMarket matrix coordinate Real Symmetric\n% comment\n\n3 3 2\n" + entries
		h, err := ReadMatrixMarketHeader(strings.NewReader(doc))
		if want := (MMHeader{Field: "real", Symmetry: "symmetric", Rows: 3, Cols: 3, NNZ: 2}); err != nil || h != want {
			t.Errorf("entries %q: header %+v, %v; want %+v", entries, h, err, want)
		}
		if _, err := ReadMatrixMarket(strings.NewReader(doc)); err == nil {
			t.Errorf("entries %q: the parser accepted them", entries)
		}
	}
	for _, doc := range []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2\n",
		"%%MatrixMarket matrix coordinate real general\n2 x 1\n",
		"%%MatrixMarket matrix coordinate real general\n134217729 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n1 1 268435457\n",
		"%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n",
	} {
		if h, err := ReadMatrixMarketHeader(strings.NewReader(doc)); err == nil {
			t.Errorf("%q: accepted as %+v", doc, h)
		}
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a := randomCOO(rng, 25, 19, 0.15)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b.Compact()
	if b.NNZ() != a.NNZ() {
		t.Fatalf("round trip NNZ %d != %d", b.NNZ(), a.NNZ())
	}
	for k := range a.V {
		if a.I[k] != b.I[k] || a.J[k] != b.J[k] || a.V[k] != b.V[k] {
			t.Fatalf("entry %d mismatch", k)
		}
	}
}
