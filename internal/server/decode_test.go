package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"sparsetask/internal/sparse"
)

// referenceDecode is the decode decodeJobSpec must agree with: json.Decoder
// over the whole body, the trailing-data check, and Validate.
func referenceDecode(body []byte) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, fmt.Errorf("bad job spec: %w", err)
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return JobSpec{}, fmt.Errorf("bad job spec: trailing data %.32q after the spec", rest)
	}
	return spec, spec.Validate()
}

// checkDecode fails t unless decodeJobSpec gives body the reference's
// outcome: the same error text, or the same spec, document and header. It
// reports whether the document was located rather than decoded by
// encoding/json.
func checkDecode(t *testing.T, body []byte) (located bool) {
	t.Helper()
	want, wantErr := referenceDecode(body)
	got, err := decodeJobSpec(body)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("error %v, want %v", err, wantErr)
	}
	if err != nil {
		return got.mm != nil
	}
	if spec := got.JobSpec(); !reflect.DeepEqual(spec, want) {
		t.Fatalf("spec %+v, want %+v", spec, want)
	}
	if m, suite := got.SuiteMatrix(); suite != (want.Matrix.MM == "") || m.MM != "" || !bytes.Equal(got.Raw, body) {
		t.Fatalf("SuiteMatrix %+v, %v; Raw %q", m, suite, got.Raw)
	}
	doc, err := io.ReadAll(iotest.OneByteReader(got.DocumentReader()))
	if err != nil || string(doc) != want.Matrix.MM {
		t.Fatalf("DocumentReader read %q (%v), want %q", doc, err, want.Matrix.MM)
	}
	h, err := sparse.ReadMatrixMarketHeader(got.DocumentReader())
	wantH, wantErr := sparse.ReadMatrixMarketHeader(strings.NewReader(want.Matrix.MM))
	if h != wantH || fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("header %+v (%v), want %+v (%v)", h, err, wantH, wantErr)
	}
	return got.mm != nil
}

// quote renders s as a JSON string the way a client that does not escape
// HTML would: \n, \" and \\ escapes, everything else as is.
func quote(s string) string {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(s); err != nil {
		panic(err)
	}
	return strings.TrimSuffix(b.String(), "\n")
}

const decodeDoc = "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 4\n2 2 4\n3 3 4\n"

func inlineBody(matrix string) string {
	return `{"solver":"cg","backend":"bsp","matrix":` + matrix + `}`
}

// decodeCases are bodies whose outcome depends on encoding/json's rules for
// keys, duplicates, escapes and strings; located says which ones the
// structural pass must serve without encoding/json decoding the document.
var decodeCases = []struct {
	name, body string
	located    bool
}{
	{"mm key", inlineBody(`{"mm":` + quote(decodeDoc) + `}`), true},
	{"MM key", inlineBody(`{"MM":` + quote(decodeDoc) + `}`), true},
	{"Matrix key", `{"solver":"cg","backend":"bsp","Matrix":{"mM":` + quote(decodeDoc) + `}}`, true},
	{"white space", " {\n\t\"matrix\" : { \"seed\" : 3 , \"mm\" :" + quote(decodeDoc) + " } , \"k\" : 2 }\r\n", true},
	{"two mm keys", inlineBody(`{"mm":` + quote(decodeDoc) + `,"mm":` + quote(strings.Replace(decodeDoc, "3 3 4", "3 3 5", 1)) + `}`), false},
	{"null mm after a string", inlineBody(`{"mm":` + quote(decodeDoc) + `,"mm":null}`), false},
	{"two matrix objects", inlineBody(`{"mm":` + quote(decodeDoc) + `},"matrix":{"seed":2}`), false},
	{"second matrix empties mm", inlineBody(`{"mm":` + quote(decodeDoc) + `},"matrix":{"mm":""}`), false},
	{"escaped key", inlineBody(`{"m\u006d":` + quote(decodeDoc) + `}`), false},
	{"raw ampersand", inlineBody(`{"mm":` + quote("%%MatrixMarket matrix coordinate real general\n% a & b\n1 1 1\n1 1 2\n") + `}`), true},
	{"escaped ampersand", inlineBody(`{"mm":"%%MatrixMarket matrix coordinate real general\n% a \u0026 b\n1 1 1\n1 1 2\n"}`), false},
	{"non-ASCII comment", inlineBody(`{"mm":` + quote("%%MatrixMarket matrix coordinate real general\n% café\n1 1 1\n1 1 2\n") + `}`), false},
	{"invalid UTF-8", inlineBody(`{"mm":"%%MatrixMarket matrix coordinate real general\n% ` + "\xff\xfe" + `\n1 1 1\n1 1 2\n"}`), false},
	{"lone surrogate", inlineBody(`{"mm":"%%MatrixMarket matrix coordinate real general\n% \ud800\n1 1 1\n1 1 2\n"}`), false},
	{"raw tab", inlineBody(`{"mm":"%%MatrixMarket matrix coordinate real general\n1 1 1\n1` + "\t" + `1 2\n"}`), false},
	{"raw newline", inlineBody(`{"mm":"%%MatrixMarket matrix coordinate real general` + "\n" + `1 1 1\n1 1 2\n"}`), false},
	{"bad escape", inlineBody(`{"mm":"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2\x\n"}`), false},
	{"slash and CRLF escapes", inlineBody(`{"mm":"%%MatrixMarket matrix coordinate real general\r\n% a\/b \"q\" \\\r\n1 1 1\r\n1 1 2\r\n"}`), true},
	{"tab and form feed escapes", inlineBody(`{"mm":"%%MatrixMarket\tmatrix coordinate real general\n1\t1 1\f\n1 1 2\n"}`), true},
	{"escaped backslash before the quote", inlineBody(`{"mm":"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2\n\\"}`), true},
	{"mm is a number", inlineBody(`{"mm":5}`), false},
	{"empty mm", inlineBody(`{"mm":""}`), true},
	{"mm beside suite", inlineBody(`{"suite":"inline1","mm":` + quote(decodeDoc) + `}`), true},
	{"mm outside matrix", `{"solver":"cg","backend":"bsp","mm":` + quote(decodeDoc) + `}`, false},
	{"unknown field", `{"solver":"cg","backend":"bsp","rhs":[1,{"mm":"x"}],"matrix":{"mm":` + quote(decodeDoc) + `}}`, false},
	{"bad solver", `{"solver":"qr","backend":"bsp","matrix":{"mm":` + quote(decodeDoc) + `}}`, true},
	{"trailing spec", inlineBody(`{"mm":`+quote(decodeDoc)+`}`) + `{"solver":"qr"}`, false},
	{"trailing white space", inlineBody(`{"mm":`+quote(decodeDoc)+`}`) + " \r\n\t", true},
	{"unterminated", inlineBody(`{"mm":"%%MatrixMarket`), false},
	{"suite spec", `{"solver":"cg","backend":"bsp","matrix":{"suite":"inline1","seed":2},"k":3}`, false},
	{"not an object", `["solver"]`, false},
}

// A Content-Length costs a client one header line: a request that declares
// MaxJobBodyBytes and sends a few bytes must not make ReadJobSpec allocate
// anything like that much.
func TestDeclaredLengthDoesNotSizeTheBuffer(t *testing.T) {
	least := uint64(math.MaxUint64)
	for range 3 { // the least of three, should another goroutine allocate meanwhile
		req := httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(`{"solver":`))
		req.ContentLength = MaxJobBodyBytes
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, status, _ := ReadJobSpec(httptest.NewRecorder(), req)
		runtime.ReadMemStats(&after)
		if status != http.StatusBadRequest {
			t.Fatalf("truncated body: status %d, want 400", status)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 2*maxPresizeBytes {
		t.Fatalf("ReadJobSpec allocated %d bytes for a 10-byte body declaring %d", least, MaxJobBodyBytes)
	}
}

func TestDecodeJobSpecMatchesEncodingJSON(t *testing.T) {
	for _, c := range decodeCases {
		t.Run(c.name, func(t *testing.T) {
			if located := checkDecode(t, []byte(c.body)); located != c.located {
				t.Errorf("document located %v, want %v", located, c.located)
			}
		})
	}
}

// FuzzDecodeJobSpec holds decodeJobSpec to json.Decoder's outcome on every
// body: status, error text, spec and document.
func FuzzDecodeJobSpec(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}
