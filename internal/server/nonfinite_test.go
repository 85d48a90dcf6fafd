package server

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sparsetask/internal/solver"
)

// A NaN or infinite number must never reach a result: the parser refuses it
// in a matrix at admission, the engine refuses a non-finite eigen result, and the
// JSON writer turns whatever slips through into a 500 instead of an empty 200.

// symMM4 is a 4×4 symmetric MatrixMarket document: diag(a, b, c, d) with a
// coupling between rows 1 and 2, its entry values as given.
func symMM4(a, b, c, d, off string) string {
	return "%%MatrixMarket matrix coordinate real symmetric\n4 4 5\n1 1 " + a + "\n2 1 " + off + "\n2 2 " + b + "\n3 3 " + c + "\n4 4 " + d + "\n"
}

func eigenSpec(solver, mm string) JobSpec {
	s := JobSpec{Solver: solver, Backend: "deepsparse", Matrix: MatrixSpec{MM: mm}, K: 1}
	if solver == "lobpcg" {
		s.Iters = 3
	}
	return s
}

// The engine parses an inline matrix at admission, so a document with a
// non-finite value fails the submission itself: Submit returns the parser's
// text, solverd answers 400 with it, and no job is ever registered.
func TestNonFiniteMatrixFailsTheJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, RTWorkers: 2})
	mm := symMM4("2", "2", "nan", "2", "-1")
	want := `bad matrix: sparse: non-finite value "nan" at MatrixMarket entry (3,3)`
	for _, solver := range []string{"lanczos", "lobpcg", "cg"} {
		j, _, err := s.Submit(eigenSpec(solver, mm))
		if j != nil || !errors.Is(err, ErrBadMatrix) || err.Error() != want {
			t.Errorf("%s: Submit = %v, %v; want no job and %q", solver, j, err, want)
		}
		if status, msg := postForError(t, ts, mmSpecFor(mm, solver, "deepsparse", `"k":1`)); status != http.StatusBadRequest || msg != want {
			t.Errorf("%s: POST /jobs: %d %q, want 400 %q", solver, status, msg, want)
		}
	}
	if views := s.Views(); len(views) != 0 {
		t.Errorf("%d jobs registered for refused documents", len(views))
	}
	if m := getMetrics(t, ts); m.Jobs.Submitted != 0 || m.Jobs.Failed != 0 {
		t.Errorf("submitted %d, failed %d; want 0 and 0", m.Jobs.Submitted, m.Jobs.Failed)
	}
}

// Finite input can still overflow: entries of 1e300 square past the largest
// float64 in the first product. The job fails and says so; it is not done
// with a NaN in its result.
func TestOverflowingEigenResultFails(t *testing.T) {
	e := newTestEngine(t, Config{Workers: 1, RTWorkers: 2})
	mm := symMM4("1e300", "2e300", "3e300", "4e300", "1e300")
	for _, solver := range []string{"lanczos", "lobpcg"} {
		j, _, err := e.Submit(eigenSpec(solver, mm))
		if err != nil {
			t.Fatal(err)
		}
		v := waitTerminal(t, j, 30*time.Second)
		if v.State != StateFailed || !strings.HasPrefix(v.Error, solver+": non-finite ") {
			t.Errorf("%s: %s %q, want it failed as a non-finite result", solver, v.State, v.Error)
		}
		if v.Result != nil {
			t.Errorf("%s: failed job carries a result %+v", solver, v.Result)
		}
	}
}

func TestFiniteEigen(t *testing.T) {
	for _, c := range []struct {
		eig  []float64
		res  float64
		want string
	}{
		{[]float64{1, 2}, 0.5, ""},
		{[]float64{1, math.NaN()}, 0.5, "non-finite eigenvalue 1 (NaN)"},
		{[]float64{math.Inf(-1)}, 0.5, "non-finite eigenvalue 0 (-Inf)"},
		{[]float64{1}, math.Inf(1), "non-finite residual (+Inf)"},
	} {
		err := finiteEigen(solver.Result{Eigenvalues: c.eig, Residual: c.res})
		if got := errText(err); got != c.want {
			t.Errorf("finiteEigen(%v, %v) = %q, want %q", c.eig, c.res, got, c.want)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// An unencodable value is a 500 with an error body, never a 200 with none.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body %q is not JSON: %v", rec.Body.String(), err)
	}
	if rec.Code != http.StatusInternalServerError || !strings.Contains(body["error"], "NaN") {
		t.Fatalf("status %d body %q, want 500 naming the NaN", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	WriteJSON(rec, http.StatusAccepted, map[string]int{"x": 1})
	if rec.Code != http.StatusAccepted || rec.Body.String() != "{\n  \"x\": 1\n}\n" {
		t.Fatalf("status %d body %q", rec.Code, rec.Body.String())
	}
}

// One shard job whose result overflows does not take GET /jobs down with
// it: the list still answers 200 with every job, the failed ones with their
// reasons.
func TestListJobsSurvivesNonFiniteJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, RTWorkers: 2})
	overflow := symMM4("1e300", "2e300", "3e300", "4e300", "1e300")
	var ids []string
	for _, spec := range []string{
		mmSpec("cg", "bsp", ""),
		mmSpecFor(overflow, "lanczos", "bsp", `"k":1`),
		mmSpecFor(overflow, "lobpcg", "bsp", `"k":1,"iters":3`),
		mmSpec("lanczos", "bsp", `"k":2`),
	} {
		v, status := postJob(t, ts, spec)
		if status != http.StatusAccepted {
			t.Fatalf("submit status %d", status)
		}
		ids = append(ids, v.ID)
	}
	for i, id := range ids {
		v, _ := waitState(t, ts, id, StateDone, 30*time.Second)
		if failed := i == 1 || i == 2; failed != (v.State == StateFailed) || (failed && !strings.Contains(v.Error, ": non-finite ")) {
			t.Errorf("job %s: %s %q", id, v.State, v.Error)
		}
	}
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var views []JobView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs: status %d, decode %v", resp.StatusCode, err)
	}
	if len(views) != len(ids) {
		t.Fatalf("listed %d jobs, want %d", len(views), len(ids))
	}
}
