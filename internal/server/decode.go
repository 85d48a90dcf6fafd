package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Decoding a POST /jobs body. An inline matrix makes the spec one long JSON
// string (a 15 k-entry document is ~260 KB) beside a few hundred bytes of
// knobs, and encoding/json's scanner steps through every byte of it. So
// decodeJobSpec locates that string instead: a structural pass walks the
// spec's two objects and skips each string with bytes.IndexByte. It hands
// encoding/json a copy of the body with the document emptied, and leaves the
// document escaped in the body until it is asked for. A body the pass does
// not recognize as the plain case goes to encoding/json whole: an escaped or
// non-ASCII key, a second matrix or mm key, a \u escape or a byte outside
// printable ASCII in the document. So does every body the copy's decode
// refuses. Either way each body gets the outcome json.Decoder gives it, and
// each refusal its error text.

// JobBody is a POST /jobs body, decoded and validated by ReadJobSpec.
type JobBody struct {
	// Raw is the body as the client sent it, which the router forwards.
	Raw []byte

	spec   JobSpec // the spec less its inline document: spec.Matrix.MM is empty
	mm     []byte  // matrix.mm's contents as sent: printable ASCII and one-byte escapes only
	mmLen  int     // the length of the document mm encodes
	mmText string  // the document, when encoding/json decoded the whole body
}

// SuiteMatrix returns the spec's matrix when it names a suite matrix; ok is
// false when the spec carries an inline document, which DocumentReader reads.
func (b *JobBody) SuiteMatrix() (m MatrixSpec, ok bool) {
	return b.spec.Matrix, len(b.mm) == 0 && b.mmText == ""
}

// JobSpec returns the spec as json.Decoder decodes the body, its inline
// document unescaped into a string of exactly the document's length.
func (b *JobBody) JobSpec() JobSpec {
	spec := b.spec
	if b.mm == nil {
		spec.Matrix.MM = b.mmText
		return spec
	}
	var sb strings.Builder
	sb.Grow(b.mmLen)
	if _, err := io.Copy(&sb, &unescapeReader{b.mm}); err != nil {
		panic(err) // neither a strings.Builder nor an unescapeReader fails
	}
	spec.Matrix.MM = sb.String()
	return spec
}

// DocumentReader reads the inline document, unescaping only what is read.
func (b *JobBody) DocumentReader() io.Reader {
	if b.mm == nil {
		return strings.NewReader(b.mmText)
	}
	return &unescapeReader{b.mm}
}

type unescapeReader struct{ src []byte }

func (u *unescapeReader) Read(p []byte) (n int, err error) {
	if len(u.src) == 0 {
		return 0, io.EOF
	}
	for n < len(p) && len(u.src) > 0 {
		if u.src[0] == '\\' {
			p[n] = unescaped[u.src[1]]
			n++
			u.src = u.src[2:]
			continue
		}
		i := bytes.IndexByte(u.src, '\\')
		if i < 0 {
			i = len(u.src)
		}
		c := copy(p[n:], u.src[:i])
		n += c
		u.src = u.src[c:]
	}
	return n, nil
}

// unescaped maps the byte after a backslash to what the escape stands for,
// for the escapes that stand for one byte; every other byte maps to 0.
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// decodeJobSpec decodes and validates a POST /jobs body.
func decodeJobSpec(body []byte) (JobBody, error) {
	if start, end, ok := locateMM(body); ok {
		if esc, ok := plainString(body[start:end]); ok {
			rest := make([]byte, 0, len(body)-(end-start))
			rest = append(append(rest, body[:start]...), body[end:]...)
			var spec JobSpec
			if decodeStrict(rest, &spec) == nil {
				b := JobBody{Raw: body, spec: spec, mm: body[start:end], mmLen: end - start - esc}
				return b, b.spec.validate(end > start)
			}
		}
	}
	b := JobBody{Raw: body}
	if err := decodeStrict(body, &b.spec); err != nil {
		return JobBody{}, err
	}
	b.mmText, b.spec.Matrix.MM = b.spec.Matrix.MM, ""
	return b, b.spec.validate(b.mmText != "")
}

// decodeStrict decodes one JSON value into spec, refusing unknown fields and
// anything but white space after the value.
func decodeStrict(data []byte, spec *JobSpec) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		return fmt.Errorf("bad job spec: %w", err)
	}
	// A second value after the spec would be ignored silently, and the router
	// forwards the body as sent: only JSON white space may follow.
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("bad job spec: trailing data %.32q after the spec", rest)
	}
	return nil
}

// plainString reports whether s, the contents of a JSON string, holds only
// printable ASCII and one-byte escapes, and counts the escapes.
func plainString(s []byte) (escapes int, ok bool) {
	if !printableASCII(s) {
		return 0, false
	}
	for i := bytes.IndexByte(s, '\\'); i >= 0; i = bytes.IndexByte(s, '\\') {
		if i+1 == len(s) || unescaped[s[i+1]] == 0 {
			return 0, false
		}
		escapes++
		s = s[i+2:]
	}
	return escapes, true
}

// printableASCII reports whether every byte of s is in 0x20–0x7f, eight at a
// time: subtracting 0x20 from each byte borrows into the top bit of exactly
// those below 0x20 (the lowest such byte first), and the top bit is already
// set in those at or above 0x80.
func printableASCII(s []byte) bool {
	const lo, hi = 0x2020202020202020, 0x8080808080808080
	for ; len(s) >= 8; s = s[8:] {
		w := binary.LittleEndian.Uint64(s)
		if ((w-lo)&^w|w)&hi != 0 {
			return false
		}
	}
	for _, c := range s {
		if c < 0x20 || c >= 0x80 {
			return false
		}
	}
	return true
}

// locateMM returns the bounds of the contents of the body's matrix.mm string:
// the one value of the top-level object's one "matrix" member, itself an
// object with one "mm" member. It reports false when there is no such string,
// and when the object has a key encoding/json might match otherwise (an
// escaped or non-ASCII one), or a second matrix or mm key, which encoding/json
// merges. Elsewhere it only finds where each value ends: what it passes over
// is checked by decoding the rest of the body.
func locateMM(body []byte) (start, end int, ok bool) {
	w := walker{b: body}
	var matrices, mms int
	found := w.next('{') && w.object(func(key []byte) bool {
		if !bytes.EqualFold(key, []byte("matrix")) {
			return w.skipValue()
		}
		if matrices++; !w.next('{') {
			return w.skipValue()
		}
		return w.object(func(key []byte) bool {
			if !bytes.EqualFold(key, []byte("mm")) {
				return w.skipValue()
			}
			if mms++; !w.next('"') {
				return w.skipValue()
			}
			start, end, ok = w.str()
			return ok
		})
	})
	return start, end, found && ok && matrices == 1 && mms == 1
}

// walker steps through a JSON document.
type walker struct {
	b []byte
	i int
}

// next skips white space and consumes c if it comes next.
func (w *walker) next(c byte) bool {
	for w.i < len(w.b) && isSpace(w.b[w.i]) {
		w.i++
	}
	if w.i < len(w.b) && w.b[w.i] == c {
		w.i++
		return true
	}
	return false
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// object walks the members of an object whose '{' is consumed, calling member
// with each key once its ':' is consumed; member consumes the value. Keys
// with an escape or a non-ASCII byte stop the walk.
func (w *walker) object(member func(key []byte) bool) bool {
	if w.next('}') {
		return true
	}
	for {
		if !w.next('"') {
			return false
		}
		start, end, ok := w.str()
		if !ok || !w.next(':') {
			return false
		}
		if key := w.b[start:end]; bytes.IndexByte(key, '\\') >= 0 || !printableASCII(key) || !member(key) {
			return false
		}
		if !w.next(',') {
			return w.next('}')
		}
	}
}

// str consumes a string whose opening quote is consumed and returns the
// bounds of its contents. A quote closes it unless an odd run of backslashes
// precedes it.
func (w *walker) str() (start, end int, ok bool) {
	start = w.i
	for {
		q := bytes.IndexByte(w.b[w.i:], '"')
		if q < 0 {
			return 0, 0, false
		}
		w.i += q + 1
		j := w.i - 2
		for j >= start && w.b[j] == '\\' {
			j--
		}
		if (w.i-2-j)%2 == 0 {
			return start, w.i - 1, true
		}
	}
}

// skipValue consumes one value.
func (w *walker) skipValue() bool {
	if w.next('"') {
		_, _, ok := w.str()
		return ok
	}
	depth := 0
	for ; w.i < len(w.b); w.i++ {
		switch c := w.b[w.i]; c {
		case '"':
			w.i++
			if _, _, ok := w.str(); !ok {
				return false
			}
			w.i--
		case '{', '[':
			depth++
		case '}', ']', ',':
			if depth == 0 {
				return true
			}
			if c != ',' {
				depth--
			}
		}
	}
	return false
}
