// Package taintfix exercises the taint analyzer: untrusted values decoded
// from JSON or read from HTTP request fields must pass a validating clamp
// before reaching allocations, indexes, loop bounds, durations, or
// goroutine spawns. Loaded as fixture/internal/server so the serving-path
// scoping applies.
package taintfix

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"
)

const limit = 1024

var errTooBig = errors.New("out of range")

// Req is a JSON ingress type: handle decodes it straight from the request
// body, so every basic-typed field is attacker-controlled until clamped.
type Req struct {
	N         int    `json:"n"`
	Idx       int    `json:"idx"`
	Workers   int    `json:"workers"`
	TimeoutMS int64  `json:"timeout_ms"`
	Checked   int    `json:"checked"`
	Mode      string `json:"mode"`
}

// Validate upper-bounds Checked and membership-checks Mode at admission, so
// both are clean module-wide.
//
//sparselint:validator
func (q *Req) Validate() error {
	if q.Checked > limit {
		return errTooBig
	}
	switch q.Mode {
	case "batch", "single":
	default:
		return errTooBig
	}
	return nil
}

func handle(w http.ResponseWriter, r *http.Request) {
	var q Req
	if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
		return
	}
	direct(&q)
}

// ---------------------------------------------------------------- positives

func direct(q *Req) {
	_ = make([]float64, q.N) // want `untrusted Req\.N \(decoded from JSON\) reaches a make size/capacity without a validating clamp`
}

func loopBound(q *Req) int {
	sum := 0
	for i := 0; i < q.N; i++ { // want `untrusted Req\.N .* reaches a loop bound`
		sum += i
	}
	return sum
}

func rangeInt(q *Req) {
	for range q.N { // want `untrusted Req\.N .* reaches a loop bound`
	}
}

func spawn(q *Req) {
	for i := 0; i < q.Workers; i++ { // want `untrusted Req\.Workers .* reaches a goroutine-spawn loop bound`
		go func() {}()
	}
}

func deadline(q *Req) time.Duration {
	return time.Duration(q.TimeoutMS) * time.Millisecond // want `untrusted Req\.TimeoutMS .* reaches a time\.Duration conversion`
}

func index(q *Req, xs []float64) float64 {
	return xs[q.Idx] // want `untrusted Req\.Idx .* reaches a slice index`
}

func sliceBound(q *Req, xs []float64) []float64 {
	return xs[:q.N] // want `untrusted Req\.N .* reaches a slice bound`
}

// alloc's parameter reaches a make inside the callee: the summary carries
// the obligation back to every call site.
func alloc(n int) []float64 {
	return make([]float64, n)
}

func viaHelperSink(q *Req) []float64 {
	return alloc(q.N) // want `untrusted Req\.N .* reaches a make size/capacity without a validating clamp \[flow: alloc\]`
}

// swapSize reaches its make with b directly, and with a only through the
// call to itself, which swaps them: what a is owed is known once swapSize
// is solved again with its own summary.
func swapSize(a, b int) []float64 {
	if a >= 0 {
		return swapSize(b, a)
	}
	return make([]float64, b)
}

func viaRecursion(q *Req) []float64 {
	return swapSize(q.N, 0) // want `untrusted Req\.N .* reaches a make size/capacity without a validating clamp \[flow: swapSize → swapSize\]`
}

// sizeOf births the taint inside a helper: the summary's result flow carries
// the source to the caller.
func sizeOf(r *http.Request) int {
	var q Req
	if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
		return 0
	}
	return q.N
}

func viaHelperSource(r *http.Request) []int {
	n := sizeOf(r)
	return make([]int, n) // want `untrusted Req\.N .* reaches a make size/capacity without a validating clamp \[flow: sizeOf\]`
}

func fromPath(r *http.Request) []byte {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		return nil
	}
	return make([]byte, n) // want `untrusted PathValue result \(HTTP request field\) reaches a make size/capacity`
}

func fromContentLength(r *http.Request) []byte {
	return make([]byte, 0, r.ContentLength) // want `untrusted ContentLength \(HTTP request field\) reaches a make size/capacity`
}

// halfClamped bounds q.N on only one branch: the join keeps the taint.
func halfClamped(q *Req, flag bool) []int {
	n := q.N
	if flag {
		if n > limit {
			return nil
		}
	}
	return make([]int, n) // want `untrusted Req\.N .* reaches a make size/capacity`
}

// ---------------------------------------------------------------- negatives

func clampedBranch(q *Req) []int {
	if q.N > limit {
		return nil
	}
	return make([]int, q.N)
}

func clampedAssign(q *Req) []int {
	n := q.N
	if n > limit {
		n = limit
	}
	return make([]int, n)
}

func clampedMin(q *Req) []int {
	return make([]int, min(q.N, limit))
}

func clampedContentLength(r *http.Request) []byte {
	return make([]byte, 0, min(r.ContentLength, limit))
}

func clampedInterproc(q *Req) []float64 {
	n := q.N
	if n > limit {
		n = limit
	}
	return alloc(n)
}

func validatedField(q *Req) []int {
	// Checked is upper-bounded by the //sparselint:validator method.
	return make([]int, q.Checked)
}

func compareOnly(q *Req) bool {
	// Comparison results are booleans, not sizes: clean.
	return q.N > limit
}

func lenBound(q *Req, xs []float64) float64 {
	// len of real data is bounded by the real allocation.
	acc := 0.0
	for i := 0; i < len(xs); i++ {
		acc += xs[i]
	}
	return acc
}

func suppressed(q *Req) []int {
	//lint:ignore sparselint/taint fixture exercises the suppression path
	return make([]int, q.N)
}
