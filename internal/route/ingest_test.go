package route

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sparsetask/internal/server"
	"sparsetask/internal/sparse"
)

// Tests for where an inline matrix is read: the router places it by its
// header, and the shard parses it once, at admission, so every refusal still
// reaches the client as a 400 and no shard holds a job for a bad document.

// newEngineShard serves a real solverd engine until the test ends.
func newEngineShard(t *testing.T, cfg server.Config) *httptest.Server {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return ts
}

// getJSON decodes a GET response into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

// waitDone polls a job through the router until it is done, and fails the
// test if it ends any other way.
func waitDone(t *testing.T, front *httptest.Server, id string) server.JobView {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var v server.JobView
		getJSON(t, front.URL+"/jobs/"+id, &v)
		if v.State == server.StateDone {
			return v
		}
		if v.State == server.StateFailed || v.State == server.StateCanceled || time.Now().After(deadline) {
			t.Fatalf("job %s is %s: %s", id, v.State, v.Error)
		}
	}
}

// A document whose header is sound but whose entries are not passes the
// router and is refused by the shard at admission: the client gets the
// parser's words in a 400, and no shard lists a job for it.
func TestEntryErrorsRefusedAtShardAdmission(t *testing.T) {
	cfg := server.Config{Workers: 1, RTWorkers: 1}
	r := newTestRouter(t, Config{Shards: []Shard{
		{Name: "s0", URL: newEngineShard(t, cfg).URL}, {Name: "s1", URL: newEngineShard(t, cfg).URL}}})
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	const general = "%%MatrixMarket matrix coordinate real general\n3 3 "
	for _, c := range []struct{ doc, want string }{
		{"%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 2\n2 2 nan\n3 3 2\n",
			`sparse: non-finite value "nan" at MatrixMarket entry (2,2)`},
		{general + "2\n1 1 2\n4 1 1\n", `sparse: MatrixMarket entry (4,1) outside 3x3`},
		{general + "2\n1 1 2\n2 2\n", `sparse: short MatrixMarket entry "2 2"`},
		{general + "3\n1 1 2\n2 2 2\n", `sparse: MatrixMarket declared 3 entries, found 2`},
	} {
		body, err := json.Marshal(server.JobSpec{Solver: "cg", Backend: "bsp", Matrix: server.MatrixSpec{MM: c.doc}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(front.URL+"/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if want := "bad matrix: " + c.want; err != nil || resp.StatusCode != http.StatusBadRequest || e.Error != want {
			t.Errorf("status %d, error %q (%v); want 400 %q", resp.StatusCode, e.Error, err, want)
		}
	}
	var jobs []server.JobView
	getJSON(t, front.URL+"/jobs", &jobs)
	var ms MetricsSnapshot
	getJSON(t, front.URL+"/metrics", &ms)
	if len(jobs) != 0 || ms.Totals.Submitted != 0 || ms.Router.Submitted != 0 {
		t.Errorf("%d jobs listed, %d submitted to shards, %d through the router; want none",
			len(jobs), ms.Totals.Submitted, ms.Router.Submitted)
	}
}

// One structure re-sent with new values writes the same header, so it lands
// on the shard that tuned its plan — behind a restarted router too — and
// the plan cache hits while the operator is built anew.
func TestSameHeaderLandsOnOneShard(t *testing.T) {
	cfg := server.Config{Workers: 1, RTWorkers: 1}
	shards := []Shard{{Name: "s0", URL: newEngineShard(t, cfg).URL}, {Name: "s1", URL: newEngineShard(t, cfg).URL}}
	first, second := tridiagMM(300), strings.ReplaceAll(tridiagMM(300), " 4.0\n", " 5.0\n")
	if first == second || inlineKey(t, first) != inlineKey(t, second) {
		t.Fatal("the test needs two documents with one header")
	}
	spec := func(mm string) server.JobSpec {
		return server.JobSpec{Solver: "lanczos", Backend: "bsp", K: 4, Matrix: server.MatrixSpec{MM: mm}}
	}

	var placed string
	for i, mm := range []string{first, second} {
		r := newTestRouter(t, Config{Shards: shards}) // a fresh router each time
		front := httptest.NewServer(r.Handler())
		v, status := postSpec(t, front, spec(mm))
		if status != http.StatusAccepted {
			t.Fatalf("document %d: status %d", i, status)
		}
		res := waitDone(t, front, v.ID).Result
		front.Close()
		shard := shardOf(t, v)
		if i == 0 {
			placed = shard
			if want := Rank(r.names, inlineKey(t, mm))[0]; shard != want {
				t.Fatalf("placed on %s, the header key ranks %s first", shard, want)
			}
			continue
		}
		if shard != placed {
			t.Fatalf("same header, new values: placed on %s, the first document on %s", shard, placed)
		}
		if res.PlanSource != "cache" || res.MatrixSource != "built" {
			t.Errorf("second document: plan_source %q matrix_source %q, want cache built", res.PlanSource, res.MatrixSource)
		}
	}
}

// Suite matrices keep their fingerprint placement: each lands where
// Rank(names, SpecFingerprint(spec)) puts it, over the shard names and the
// working set of the serve-repeat benchmark workload.
func TestSuiteSpecsPlacedByFingerprint(t *testing.T) {
	a, b := newFakeShard(t), newFakeShard(t)
	names := []string{"s0", "s1"}
	r := newTestRouter(t, Config{Shards: []Shard{{Name: names[0], URL: a.srv.URL}, {Name: names[1], URL: b.srv.URL}}})
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	specs := 0
	for _, suite := range []string{"inline1", "Bump_2911", "nlpkkt160"} {
		for _, preset := range []string{"tiny", "small"} {
			m := server.MatrixSpec{Suite: suite, Preset: preset, Seed: 1}
			fp, err := server.SpecFingerprint(m)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 2; seed++ {
				v, status := postSpec(t, front, server.JobSpec{Solver: "cg", Backend: "bsp", Matrix: m, Seed: seed})
				if status != http.StatusAccepted {
					t.Fatalf("%s/%s: status %d", suite, preset, status)
				}
				if got, want := shardOf(t, v), Rank(names, fp)[0]; got != want {
					t.Errorf("%s/%s landed on %s, its fingerprint ranks %s first", suite, preset, got, want)
				}
			}
			specs++
		}
	}
	if h, m, _ := r.fps.Stats(); m != int64(specs) || h != int64(specs) {
		t.Errorf("fingerprint cache hits=%d misses=%d, want %d and %d", h, m, specs, specs)
	}
}

// The router reads an inline header from the document still escaped in the
// body; whatever the escapes, the key is that of the header of the decoded
// document, and a header the decoded document refuses is refused.
func TestPlacementKeyIsTheDecodedHeaders(t *testing.T) {
	doc := tridiagMM(5)
	bodies := map[string]string{
		"plain":          string(mustJSON(t, cgSpec(doc, 1))),
		"unicode escape": strings.ReplaceAll(string(mustJSON(t, cgSpec(doc, 1))), `\n`, `\u000a`),
		"CRLF and slash": `{"solver":"cg","backend":"bsp","matrix":{"mm":"%%MatrixMarket matrix coordinate real general\r\n% a\/b\r\n2 2 1\r\n1 1 4.0\r\n"}}`,
		"long comment":   `{"solver":"cg","backend":"bsp","matrix":{"mm":"%%MatrixMarket matrix coordinate real general\n%` + strings.Repeat("x", 9000) + `\n2 2 1\n1 1 4.0\n"}}`,
		"non-ASCII":      `{"solver":"cg","backend":"bsp","matrix":{"mm":"%%MatrixMarket matrix coordinate real symmetric\n% café\n2 2 1\n1 1 4.0\n"}}`,
		"bad size line":  `{"solver":"cg","backend":"bsp","matrix":{"mm":"%%MatrixMarket matrix coordinate real general\n2 x 1\n1 1 4.0\n"}}`,
	}
	for name, raw := range bodies {
		req := httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(raw))
		body, status, err := server.ReadJobSpec(httptest.NewRecorder(), req)
		if err != nil {
			t.Fatalf("%s: status %d: %v", name, status, err)
		}
		key, err := (&Router{}).placementKey(&body)
		h, herr := sparse.ReadMatrixMarketHeader(strings.NewReader(body.JobSpec().Matrix.MM))
		switch {
		case herr != nil:
			if err == nil || err.Error() != herr.Error() {
				t.Errorf("%s: placementKey error %v, the decoded header's %v", name, err, herr)
			}
		case err != nil || key != headerKey(h):
			t.Errorf("%s: placementKey %x (%v), headerKey of the decoded header %x", name, key, err, headerKey(h))
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
