package sparse

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Frozen copies of the implementations COO.Sort and ReadMatrixMarket replaced:
// sort.Stable through an interface, and a parser that splits every line into
// strings. The differential tests hold the replacements to their output, bit
// for bit and error for error. Do not "improve" these.

type referenceSorter struct{ a *COO }

func (s referenceSorter) Len() int { return len(s.a.V) }
func (s referenceSorter) Less(x, y int) bool {
	a := s.a
	if a.I[x] != a.I[y] {
		return a.I[x] < a.I[y]
	}
	return a.J[x] < a.J[y]
}
func (s referenceSorter) Swap(x, y int) {
	a := s.a
	a.I[x], a.I[y] = a.I[y], a.I[x]
	a.J[x], a.J[y] = a.J[y], a.J[x]
	a.V[x], a.V[y] = a.V[y], a.V[x]
}

func referenceSort(a *COO) { sort.Stable(referenceSorter{a}) }

// referenceCompact is Compact over referenceSort.
func referenceCompact(a *COO) {
	if a.isCompact() {
		return
	}
	referenceSort(a)
	w := 0
	for r := 1; r < len(a.V); r++ {
		if a.I[r] == a.I[w] && a.J[r] == a.J[w] {
			a.V[w] += a.V[r]
			continue
		}
		w++
		a.I[w], a.J[w], a.V[w] = a.I[r], a.J[r], a.V[r]
	}
	a.I = a.I[:w+1]
	a.J = a.J[:w+1]
	a.V = a.V[:w+1]
}

func referenceReadMatrixMarket(r io.Reader) (*COO, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("sparse: empty MatrixMarket stream")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket header %q", sc.Text())
	}
	field, sym := header[3], header[4]
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket field %q", field)
	}
	switch sym {
	case "general", "symmetric":
	default:
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket symmetry %q", sym)
	}

	var rows, cols, nnz int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("sparse: bad MatrixMarket size line %q: %v", line, err)
		}
		break
	}
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("sparse: bad MatrixMarket dimensions %dx%d", rows, cols)
	}
	if rows > MaxDim || cols > MaxDim {
		return nil, fmt.Errorf("sparse: MatrixMarket dimensions %dx%d exceed the %d limit", rows, cols, MaxDim)
	}
	if nnz < 0 || nnz > MaxEntries {
		return nil, fmt.Errorf("sparse: MatrixMarket entry count %d exceeds the %d limit", nnz, MaxEntries)
	}
	if sym == "symmetric" && rows != cols {
		return nil, fmt.Errorf("sparse: symmetric MatrixMarket matrix must be square, got %dx%d", rows, cols)
	}

	hint := nnz
	if sym == "symmetric" {
		hint = 2 * nnz
	}
	const maxHint = 1 << 22
	if hint > maxHint {
		hint = maxHint
	}
	a := NewCOO(rows, cols, hint)
	read := 0
	for read < nnz && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		want := 3
		if field == "pattern" {
			want = 2
		}
		if len(f) < want {
			return nil, fmt.Errorf("sparse: short MatrixMarket entry %q", line)
		}
		i64, err := strconv.ParseInt(f[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("sparse: bad row index %q: %v", f[0], err)
		}
		j64, err := strconv.ParseInt(f[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("sparse: bad col index %q: %v", f[1], err)
		}
		v := 1.0
		if field != "pattern" {
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("sparse: bad value %q: %v", f[2], err)
			}
		}
		if i64 < 1 || i64 > int64(rows) || j64 < 1 || j64 > int64(cols) {
			return nil, fmt.Errorf("sparse: MatrixMarket entry (%d,%d) outside %dx%d", i64, j64, rows, cols)
		}
		i, j := int32(i64-1), int32(j64-1)
		a.Append(i, j, v)
		if sym == "symmetric" && i != j {
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
