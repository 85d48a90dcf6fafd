package sparse

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// mmSeeds seed the fuzzer, and are part of the corpus the differential test
// replays against the reference parser.
var mmSeeds = []string{
	"%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.5\n3 2 -2.25e-3\n",
	"%%MatrixMarket matrix coordinate real symmetric\n% off-diagonal expands\n3 3 2\n2 1 4.0\n3 3 -1.0\n",
	"%%MatrixMarket matrix coordinate pattern general\n2 2 3\n1 1\n1 2\n2 2\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n4 4 2\n2 1\n4 3\n",
	"%%MatrixMarket matrix coordinate integer general\n2 3 2\n1 3 7\n2 1 -12\n",
	"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 3.14159\n",
	"%%MatrixMarket matrix coordinate real general\n1 1 0\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 NaN\n2 2 +Inf\n",
}

// FuzzMatrixMarketRoundTrip checks that any MatrixMarket document the reader
// accepts survives a write→parse cycle with identical dimensions and triples.
// Symmetric inputs are expanded on the first read, so the round trip
// canonicalizes to "coordinate real general"; after that the representation
// must be a fixed point. Every input, accepted or not, must also get from the
// reader exactly what the parser it replaced gave it, except that a NaN or
// infinite value is refused (checkAgainstReferenceParser).
func FuzzMatrixMarketRoundTrip(f *testing.F) {
	for _, doc := range mmSeeds {
		f.Add(doc)
	}

	f.Fuzz(func(t *testing.T, doc string) {
		checkAgainstReferenceParser(t, doc)
		a, err := ReadMatrixMarket(strings.NewReader(doc))
		if err != nil {
			return // refused, and checked against the reference parser above: nothing to round-trip
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, a); err != nil {
			t.Fatalf("write parsed matrix: %v", err)
		}
		b, err := ReadMatrixMarket(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reparse own output: %v\noutput:\n%s", err, buf.String())
		}
		if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
			t.Fatalf("shape changed: %dx%d/%d -> %dx%d/%d",
				a.Rows, a.Cols, a.NNZ(), b.Rows, b.Cols, b.NNZ())
		}
		for k := range a.V {
			if a.I[k] != b.I[k] || a.J[k] != b.J[k] {
				t.Fatalf("entry %d moved: (%d,%d) -> (%d,%d)",
					k, a.I[k], a.J[k], b.I[k], b.J[k])
			}
			// Bit-compare so NaN payloads and signed zeros count as equal
			// to themselves.
			if math.Float64bits(a.V[k]) != math.Float64bits(b.V[k]) {
				t.Fatalf("entry %d value changed: %v -> %v", k, a.V[k], b.V[k])
			}
		}
	})
}
