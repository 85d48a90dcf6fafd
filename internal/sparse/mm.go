package sparse

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// MatrixMarket I/O. Supports the "matrix coordinate real/pattern/integer
// general/symmetric" subset, which covers every matrix class in the paper's
// suite. Pattern entries get value 1.0 (callers typically follow with
// FillRandom, as the paper does for binary matrices).

// MaxDim and MaxEntries bound what a MatrixMarket size line may declare.
// The header is untrusted input (it arrives inline in solverd job specs),
// and the declared dimensions size allocations and drive loops in every
// structure built from the parse, so they are clamped here — once, at the
// trust boundary — rather than re-checked at each use site.
const (
	MaxDim     = 1 << 27 // rows/cols ceiling; comfortably inside int32 indexing
	MaxEntries = 1 << 28 // declared-nnz ceiling for the entry-reading loop
)

// maxLine is the longest MatrixMarket line the parser accepts.
const maxLine = 1 << 20

// MMHeader is what a MatrixMarket document declares ahead of its entries:
// the banner's field and symmetry, lower-cased, and the size line. Rows, Cols
// and NNZ are within MaxDim and MaxEntries, and a symmetric matrix is square.
type MMHeader struct {
	Field    string // real, integer or pattern
	Symmetry string // general or symmetric
	Rows     int
	Cols     int
	NNZ      int // declared entries (for symmetric, the stored triangle)
}

// ReadMatrixMarketHeader reads a MatrixMarket stream's banner and size line
// and stops there: the entries are neither read nor checked. It refuses
// exactly the headers ReadMatrixMarket refuses, with the same errors.
func ReadMatrixMarketHeader(r io.Reader) (MMHeader, error) {
	return readMMHeader(mmScanner(r))
}

func mmScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	return sc
}

// readMMHeader consumes the banner, any comment lines and the size line.
func readMMHeader(sc *bufio.Scanner) (MMHeader, error) {
	if !sc.Scan() {
		return MMHeader{}, fmt.Errorf("sparse: empty MatrixMarket stream")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return MMHeader{}, fmt.Errorf("sparse: unsupported MatrixMarket header %q", sc.Text())
	}
	field, sym := header[3], header[4]
	switch field {
	case "real", "integer", "pattern":
	default:
		return MMHeader{}, fmt.Errorf("sparse: unsupported MatrixMarket field %q", field)
	}
	switch sym {
	case "general", "symmetric":
	default:
		return MMHeader{}, fmt.Errorf("sparse: unsupported MatrixMarket symmetry %q", sym)
	}

	// Skip comments, find the size line.
	var rows, cols, nnz int
	for sc.Scan() {
		if first, _ := nextField(sc.Bytes()); len(first) == 0 || first[0] == '%' {
			continue
		}
		line := strings.TrimSpace(sc.Text())
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return MMHeader{}, fmt.Errorf("sparse: bad MatrixMarket size line %q: %v", line, err)
		}
		break
	}
	if rows <= 0 || cols <= 0 {
		return MMHeader{}, fmt.Errorf("sparse: bad MatrixMarket dimensions %dx%d", rows, cols)
	}
	// The size line is untrusted input: it sizes index arrays, CSR/CSB
	// structure allocations, and entry loops everywhere downstream, so a
	// hostile header must not get past this point. MaxDim bounds what the
	// int32-indexed kernels can address anyway; MaxEntries bounds
	// ReadMatrixMarket's entry loop and pre-allocation.
	if rows > MaxDim || cols > MaxDim {
		return MMHeader{}, fmt.Errorf("sparse: MatrixMarket dimensions %dx%d exceed the %d limit", rows, cols, MaxDim)
	}
	if nnz < 0 || nnz > MaxEntries {
		return MMHeader{}, fmt.Errorf("sparse: MatrixMarket entry count %d exceeds the %d limit", nnz, MaxEntries)
	}
	if sym == "symmetric" && rows != cols {
		return MMHeader{}, fmt.Errorf("sparse: symmetric MatrixMarket matrix must be square, got %dx%d", rows, cols)
	}
	return MMHeader{Field: field, Symmetry: sym, Rows: rows, Cols: cols, NNZ: nnz}, nil
}

// ReadMatrixMarket parses a MatrixMarket coordinate stream into COO.
// Symmetric inputs are expanded to full storage.
//
// Entry lines are tokenized in the scanner's buffer: the per-entry cost is the
// three strconv calls, and the parse allocates the COO arrays plus a constant.
func ReadMatrixMarket(r io.Reader) (*COO, error) {
	sc := mmScanner(r)
	h, err := readMMHeader(sc)
	if err != nil {
		return nil, err
	}
	rows, cols, nnz := h.Rows, h.Cols, h.NNZ
	pattern, symmetric := h.Field == "pattern", h.Symmetry == "symmetric"

	hint := nnz
	if symmetric {
		hint = 2 * nnz
	}
	// Cap the pre-allocation further: entries are appended anyway, so even an
	// in-range nnz need not drive a huge up-front make().
	const maxHint = 1 << 22
	if hint > maxHint {
		hint = maxHint
	}
	a := NewCOO(rows, cols, hint)
	read := 0
	for read < nnz && sc.Scan() {
		fi, rest := nextField(sc.Bytes())
		if len(fi) == 0 || fi[0] == '%' {
			continue
		}
		fj, rest := nextField(rest)
		fv, _ := nextField(rest)
		if len(fj) == 0 || (!pattern && len(fv) == 0) {
			return nil, fmt.Errorf("sparse: short MatrixMarket entry %q", bytes.TrimSpace(sc.Bytes()))
		}
		i64, err := strconv.ParseInt(string(fi), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("sparse: bad row index %q: %v", fi, err)
		}
		j64, err := strconv.ParseInt(string(fj), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("sparse: bad col index %q: %v", fj, err)
		}
		v := 1.0
		if !pattern {
			v, err = strconv.ParseFloat(string(fv), 64)
			if err != nil {
				return nil, fmt.Errorf("sparse: bad value %q: %v", fv, err)
			}
		}
		if i64 < 1 || i64 > int64(rows) || j64 < 1 || j64 > int64(cols) {
			return nil, fmt.Errorf("sparse: MatrixMarket entry (%d,%d) outside %dx%d", i64, j64, rows, cols)
		}
		// strconv accepts nan, inf and infinity in any case; no solver can use
		// them, and a NaN eigenvalue cannot even be written back as JSON.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("sparse: non-finite value %q at MatrixMarket entry (%d,%d)", fv, i64, j64)
		}
		i, j := int32(i64-1), int32(j64-1) // MatrixMarket is 1-based
		a.Append(i, j, v)
		if symmetric && i != j {
			a.Append(j, i, v)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if read != nnz {
		return nil, fmt.Errorf("sparse: MatrixMarket declared %d entries, found %d", nnz, read)
	}
	return a, nil
}

// nextField splits the first whitespace-delimited field off b, returning it
// and what follows; the field is empty when b holds only whitespace. White
// space is what strings.Fields takes it to be, and both results alias b.
func nextField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
		} else if n := wideSpaceLen(b[i:]); n > 0 {
			i += n
		} else {
			break
		}
	}
	j := i
	for j < len(b) {
		if c := b[j]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
		} else if wideSpaceLen(b[j:]) > 0 {
			break
		}
		j++
	}
	return b[i:j], b[j:]
}

var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// wideSpaceLen returns the byte length of the non-ASCII white-space character
// b starts with (no-break space, next line, ...), 0 if it starts with
// anything else.
func wideSpaceLen(b []byte) int {
	if r, n := utf8.DecodeRune(b); unicode.IsSpace(r) {
		return n
	}
	return 0
}

// WriteMatrixMarket writes the matrix in "coordinate real general" form.
func WriteMatrixMarket(w io.Writer, a *COO) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", a.Rows, a.Cols, a.NNZ()); err != nil {
		return err
	}
	for k := range a.V {
		if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", a.I[k]+1, a.J[k]+1, a.V[k]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
