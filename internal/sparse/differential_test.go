package sparse

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// sameCOO reports the first difference between two matrices, comparing values
// by bit pattern so that a changed duplicate-merge order cannot hide.
func sameCOO(a, b *COO) error {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.V) != len(b.V) || len(a.I) != len(b.I) || len(a.J) != len(b.J) {
		return fmt.Errorf("shape %dx%d/%d vs %dx%d/%d", a.Rows, a.Cols, len(a.V), b.Rows, b.Cols, len(b.V))
	}
	for k := range a.V {
		if a.I[k] != b.I[k] || a.J[k] != b.J[k] || math.Float64bits(a.V[k]) != math.Float64bits(b.V[k]) {
			return fmt.Errorf("entry %d: (%d,%d)=%v vs (%d,%d)=%v", k, a.I[k], a.J[k], a.V[k], b.I[k], b.J[k], b.V[k])
		}
	}
	return nil
}

// orderSensitive draws values whose sum depends on the order they are added
// in, so duplicates merged in any order but insertion order show up.
func orderSensitive(rng *rand.Rand) float64 {
	return []float64{1e16, -1e16, 1, 3, 0.1, -0.3, 1e-8}[rng.Intn(7)] * (1 + rng.Float64())
}

// sortCases are the inputs Sort and Compact are held to the stable-sort
// reference on.
func sortCases() map[string]*COO {
	rng := rand.New(rand.NewSource(11))
	random := func(rows, cols, n int) *COO {
		a := NewCOO(rows, cols, n)
		for k := 0; k < n; k++ {
			a.Append(int32(rng.Intn(rows)), int32(rng.Intn(cols)), orderSensitive(rng))
		}
		return a
	}
	cases := map[string]*COO{
		"empty":           NewCOO(5, 5, 0),
		"single":          random(1, 1, 1),
		"unsorted":        random(300, 200, 4000),
		"heavy-duplicate": random(6, 6, 2000),
		"wide-row-vector": random(1, 5000, 3000),
	}
	// A 10 k-entry hub row among short rows, with duplicates inside the hub.
	hub := random(400, 4000, 1500)
	for k := 0; k < 10000; k++ {
		hub.Append(7, int32(rng.Intn(3000)), orderSensitive(rng))
	}
	cases["hub-row"] = hub
	// Rows 100..899 of 1000 stay empty.
	sparseRows := NewCOO(1000, 50, 600)
	for k := 0; k < 600; k++ {
		r := rng.Intn(200)
		if r >= 100 {
			r += 800
		}
		sparseRows.Append(int32(r), int32(rng.Intn(50)), orderSensitive(rng))
	}
	cases["empty-rows"] = sparseRows
	// Sorted by row, each row's columns reversed: every row needs sorting.
	rev := NewCOO(50, 100, 0)
	for r := 0; r < 50; r++ {
		for c := 60; c >= 0; c -= 1 + r%3 {
			rev.Append(int32(r), int32(c), orderSensitive(rng))
		}
	}
	cases["reversed-rows"] = rev
	compact := random(120, 120, 2500)
	referenceCompact(compact)
	cases["already-compact"] = compact
	return cases
}

func TestSortMatchesStableSortReference(t *testing.T) {
	for name, a := range sortCases() {
		got, want := a.Clone(), a.Clone()
		got.Sort()
		referenceSort(want)
		if err := sameCOO(got, want); err != nil {
			t.Errorf("%s: Sort differs from sort.Stable: %v", name, err)
		}
		got, want = a.Clone(), a.Clone()
		got.Compact()
		referenceCompact(want)
		if err := sameCOO(got, want); err != nil {
			t.Errorf("%s: Compact differs from the reference: %v", name, err)
		}
		if !got.isCompact() {
			t.Errorf("%s: Compact left the matrix uncompacted", name)
		}
	}
}

// TestCompactOfCompactDoesNotWrite runs the conversions that compact their
// input concurrently on one compacted matrix. Under -race any write — even a
// rewrite of identical values — to the shared arrays is a reported race.
func TestCompactOfCompactDoesNotWrite(t *testing.T) {
	a := sortCases()["unsorted"]
	a.Compact()
	want := a.Clone()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				switch (g + it) % 4 {
				case 0:
					a.Compact()
				case 1:
					_ = a.ToCSR()
				case 2:
					_ = a.ToCSB(16 + it)
				default:
					_ = a.TileSkeleton(8 + it)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := sameCOO(a, want); err != nil {
		t.Fatalf("a compact matrix changed under Compact: %v", err)
	}
}

func TestTileSkeletonIsToCSBWithoutEntries(t *testing.T) {
	a := sortCases()["unsorted"]
	for _, block := range []int{1, 7, 64, 300, 1000} {
		full, skel := a.Clone().ToCSB(block), a.Clone().TileSkeleton(block)
		if skel.RI != nil || skel.CI != nil || skel.V != nil {
			t.Fatalf("block %d: skeleton holds entries", block)
		}
		if skel.Rows != full.Rows || skel.Cols != full.Cols || skel.Block != full.Block || skel.NBR != full.NBR || skel.NBC != full.NBC {
			t.Fatalf("block %d: skeleton shape differs", block)
		}
		if len(skel.BlkPtr) != len(full.BlkPtr) {
			t.Fatalf("block %d: BlkPtr length %d vs %d", block, len(skel.BlkPtr), len(full.BlkPtr))
		}
		for k := range full.BlkPtr {
			if skel.BlkPtr[k] != full.BlkPtr[k] {
				t.Fatalf("block %d: BlkPtr[%d] = %d, ToCSB has %d", block, k, skel.BlkPtr[k], full.BlkPtr[k])
			}
		}
	}
}

// nonFiniteErr matches the one error the reader has that the reference parser
// does not: a NaN or infinite value, refused where the reference took it.
var nonFiniteErr = regexp.MustCompile(`^sparse: non-finite value ("[^"]*") at MatrixMarket entry \(\d+,\d+\)$`)

func hasNonFinite(a *COO) bool {
	return slices.ContainsFunc(a.V, func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) })
}

// checkAgainstReferenceParser holds ReadMatrixMarket to the parser it
// replaced on one document: the same matrix, or the same error — except that
// a non-finite value is refused. Then the quoted value must parse as one, and
// the reference must have accepted a matrix holding one or failed further on.
func checkAgainstReferenceParser(t *testing.T, doc string) {
	t.Helper()
	got, gotErr := ReadMatrixMarket(strings.NewReader(doc))
	checkHeaderAgreesWithParser(t, doc, got, gotErr)
	want, wantErr := referenceReadMatrixMarket(strings.NewReader(doc))
	if gotErr != nil {
		if m := nonFiniteErr.FindStringSubmatch(gotErr.Error()); m != nil {
			text, err := strconv.Unquote(m[1])
			v, perr := strconv.ParseFloat(text, 64)
			if err != nil || perr != nil || !(math.IsNaN(v) || math.IsInf(v, 0)) {
				t.Fatalf("%v: the value is not a non-finite number\ndocument: %.200q", gotErr, doc)
			}
			if wantErr == nil && !hasNonFinite(want) {
				t.Fatalf("%v, but the reference parser read only finite values\ndocument: %.200q", gotErr, doc)
			}
			return
		}
	}
	if gotErr == nil && hasNonFinite(got) {
		t.Fatalf("accepted a non-finite value\ndocument: %.200q", doc)
	}
	switch {
	case gotErr != nil || wantErr != nil:
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("error %v, reference parser's %v\ndocument: %.200q", gotErr, wantErr, doc)
		}
	default:
		if err := sameCOO(got, want); err != nil {
			t.Fatalf("parse differs from the reference parser's: %v\ndocument: %.200q", err, doc)
		}
	}
}

// checkHeaderAgreesWithParser holds ReadMatrixMarketHeader to the parse of the
// whole document: a header it refuses, the parser refuses with the same error,
// and a document the parser accepts has the shape the header declares.
func checkHeaderAgreesWithParser(t *testing.T, doc string, got *COO, gotErr error) {
	t.Helper()
	h, err := ReadMatrixMarketHeader(strings.NewReader(doc))
	switch {
	case err != nil:
		if gotErr == nil || gotErr.Error() != err.Error() {
			t.Fatalf("header refused with %v, the parser says %v\ndocument: %.200q", err, gotErr, doc)
		}
	case gotErr == nil:
		if h.Rows != got.Rows || h.Cols != got.Cols {
			t.Fatalf("header declares %dx%d, the parse is %dx%d\ndocument: %.200q", h.Rows, h.Cols, got.Rows, got.Cols, doc)
		}
		// The symmetric expansion mirrors each off-diagonal entry.
		if n := got.NNZ(); n < h.NNZ || n > 2*h.NNZ || (h.Symmetry == "general" && n != h.NNZ) {
			t.Fatalf("header declares %d %s entries, the parse holds %d\ndocument: %.200q", h.NNZ, h.Symmetry, got.NNZ(), doc)
		}
	}
}

// fuzzCorpus returns the seed documents of FuzzMatrixMarketRoundTrip plus the
// regression inputs the fuzzer has saved under testdata.
func fuzzCorpus(t *testing.T) []string {
	t.Helper()
	docs := append([]string(nil), mmSeeds...)
	files, err := filepath.Glob("testdata/fuzz/FuzzMatrixMarketRoundTrip/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if q, ok := strings.CutPrefix(line, "string("); ok {
				doc, err := strconv.Unquote(strings.TrimSuffix(q, ")"))
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				docs = append(docs, doc)
			}
		}
	}
	return docs
}

const mmHead = "%%MatrixMarket matrix coordinate real general\n"

// mmVariants are hand-written documents around the tokenizer's edges.
var mmVariants = []string{
	"",
	"\n",
	"%%MatrixMarket matrix coordinate real general",
	"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
	"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
	"%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
	"%%MatrixMarket matrix coordinate real general\r\n2 2 2\r\n1 1 1.5\r\n2 2 -2\r\n",
	"%%MatrixMarket\tmatrix\tcoordinate\treal\tgeneral\n2\t2\t2\n1\t1\t1.5\n\t2\t2\t-2\t\n",
	mmHead + "\n  % c\n  3 3 2  \n\n   1 1 1\n% between entries\n\n 3 3 1e-3   \n",
	mmHead + "2 2 2\n1 1 1 trailing fields are ignored\n2 2 2 %\n",
	mmHead + "2 2 1\n1 1\n",
	mmHead + "2 2 1\n1\n",
	"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1\n",
	"%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2 ignored\n",
	mmHead + "2 2 1\n0 1 1\n",
	mmHead + "2 2 1\n1 3 1\n",
	mmHead + "2 2 1\n-1 1 1\n",
	mmHead + "2 2 1\n+1 +2 +1\n",
	mmHead + "2 2 1\n1.0 1 1\n",
	mmHead + "2 2 1\n1 0x1 1\n",
	mmHead + "2 2 1\n99999999999 1 1\n",
	mmHead + "2 2 1\n1 1 abc\n",
	mmHead + "2 2 1\n1 1 0x1p-2\n",
	mmHead + "2 2 1\n1 1 1e999\n",
	mmHead + "2 2 1\n1 1 1_0\n",
	mmHead + "2 2 1\n1 1 .5E+1\n",
	mmHead + "2 2 1\n1 1 12345678901234567890123456789012345678901234567890e-40\n",
	mmHead + "2 2 1\n000000000000000000000000000000000000000001 1 1\n",
	"%%MatrixMarket matrix coordinate integer symmetric\n3 3 2\n3 1 -7\n2 2 4\n",
	"%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1\n",
	mmHead + "2 2 3\n1 1 1\n",
	mmHead + "2 2 1\n1 1 1\n2 2 2\n",
	mmHead + "0 2 0\n",
	mmHead + "2 2 -1\n",
	mmHead + "010 0x10 0\n",
	mmHead + "2 2\n",
	mmHead + "2 x 1\n",
	mmHead + "999999999 2 0\n",
	mmHead + "2 2 999999999\n",
	// White space strings.Fields knows and an ASCII-only tokenizer would not:
	// no-break space, next line, ideographic space, vertical tab, form feed.
	mmHead + "2 2 1\n1\u00a01\u00a02.5\n",
	mmHead + "2 2 1\n\u00851 1\u30002.5\u2003\n",
	mmHead + "2 2 1\n\v1\f1\v2.5\f\n",
	mmHead + "2 2 1\n\u00a0\n1 1 1\n",
	mmHead + "\u00a0% comment after a no-break space\n2 2 0\n",
	mmHead + "2\u00a02\u00a01\n1 1 1\n",
	// Bytes that are not white space, and not UTF-8 either.
	mmHead + "2 2 1\n1\xc2 1 1\n",
	mmHead + "2 2 1\n1 1 1\xa0\n",
	mmHead + "2 2 1\n\xe3\x80 1 1 1\n",
}

// randomMMDocument generates a document that is mostly well-formed, with the
// odd defect, in the layout variety real files have.
func randomMMDocument(rng *rand.Rand) string {
	field := []string{"real", "integer", "pattern"}[rng.Intn(3)]
	sym := []string{"general", "symmetric"}[rng.Intn(2)]
	eol := []string{"\n", "\r\n"}[rng.Intn(2)]
	sep := func() string { return []string{" ", "  ", "\t", " \t "}[rng.Intn(4)] }
	pad := func() string { return []string{"", "", " ", "\t", "   "}[rng.Intn(5)] }
	rows := 1 + rng.Intn(12)
	cols := rows
	if sym == "general" && rng.Intn(2) == 0 {
		cols = 1 + rng.Intn(12)
	}
	nnz := rng.Intn(30)
	var b strings.Builder
	fmt.Fprintf(&b, "%%%%MatrixMarket matrix coordinate %s %s%s", field, sym, eol)
	if rng.Intn(3) == 0 {
		fmt.Fprintf(&b, "%% generated%s%s", eol, eol)
	}
	fmt.Fprintf(&b, "%s%d%s%d%s%d%s%s", pad(), rows, sep(), cols, sep(), nnz, pad(), eol)
	defect := rng.Intn(9) // 0..4 pick a defect, the rest are clean
	at := -1
	if nnz > 0 {
		at = rng.Intn(nnz)
	}
	emit := nnz
	if defect == 0 && nnz > 0 {
		emit = nnz - 1 // fewer entries than declared
	}
	for k := 0; k < emit; k++ {
		if rng.Intn(6) == 0 {
			fmt.Fprintf(&b, "%s%% comment between entries%s", pad(), eol)
		}
		if rng.Intn(8) == 0 {
			b.WriteString(pad() + eol)
		}
		i, j := 1+rng.Intn(rows), 1+rng.Intn(cols)
		if sym == "symmetric" && j > i {
			i, j = j, i
		}
		if k == at && defect == 1 {
			i = rows + 1 + rng.Intn(3) // out of range
		}
		if k == at && defect == 2 {
			fmt.Fprintf(&b, "%s%d%s", pad(), i, eol) // short line
			continue
		}
		fmt.Fprintf(&b, "%s%d%s%d", pad(), i, sep(), j)
		if field != "pattern" || rng.Intn(4) == 0 {
			var v string
			switch {
			case k == at && defect == 3:
				v = "1.5.2"
			case k == at && defect == 4:
				v = []string{"nan", "-Inf", "infinity", "NaN", "+INF"}[rng.Intn(5)]
			case field == "integer":
				v = strconv.Itoa(rng.Intn(200) - 100)
			case rng.Intn(3) == 0:
				v = strconv.FormatFloat(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)), 'e', rng.Intn(17), 64)
			default:
				v = strconv.FormatFloat(rng.NormFloat64(), 'g', -1, 64)
			}
			b.WriteString(sep() + v)
		}
		b.WriteString(pad())
		if k < emit-1 || rng.Intn(4) > 0 { // the last line may lack its newline
			b.WriteString(eol)
		}
	}
	return b.String()
}

func TestReadMatrixMarketMatchesReferenceParser(t *testing.T) {
	for _, doc := range fuzzCorpus(t) {
		checkAgainstReferenceParser(t, doc)
	}
	for _, doc := range mmVariants {
		checkAgainstReferenceParser(t, doc)
	}
	rng := rand.New(rand.NewSource(5))
	accepted := 0
	for n := 0; n < 3000; n++ {
		doc := randomMMDocument(rng)
		checkAgainstReferenceParser(t, doc)
		if _, err := ReadMatrixMarket(strings.NewReader(doc)); err == nil {
			accepted++
		}
	}
	if accepted < 1000 || accepted > 2900 {
		t.Fatalf("%d of 3000 generated documents parse: the generator no longer covers both outcomes", accepted)
	}
	// A line at the length limit parses; one byte more is the scanner's error.
	for _, n := range []int{maxLine - 1, maxLine, maxLine + 1} {
		checkAgainstReferenceParser(t, mmHead+"1 1 1\n1 1 1"+strings.Repeat(" ", n-5)+"\n")
	}
}

// TestReadMatrixMarketAllocations gates the parser's allocations: the COO
// arrays and a constant, whatever the entry count.
func TestReadMatrixMarketAllocations(t *testing.T) {
	document := func(nnz int) []byte {
		a := NewCOO(500, 500, nnz)
		rng := rand.New(rand.NewSource(3))
		for k := 0; k < nnz; k++ {
			a.Append(int32(rng.Intn(500)), int32(rng.Intn(500)), rng.NormFloat64())
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, a); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// The least of several counts: under the race detector sync.Pool drops
	// items at random (fmt's scan state among them), which can only add
	// allocations.
	allocs := func(doc []byte) float64 {
		rd := bytes.NewReader(doc)
		least := math.Inf(1)
		for i := 0; i < 5; i++ {
			least = min(least, testing.AllocsPerRun(10, func() {
				rd.Reset(doc)
				if _, err := ReadMatrixMarket(rd); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	small, large := allocs(document(500)), allocs(document(16000))
	if small != large {
		t.Errorf("%v allocations for 500 entries, %v for 16000: the parser allocates per entry", small, large)
	}
	if large > 24 {
		t.Errorf("%v allocations per parse, want a small constant", large)
	}
}
