package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func reportWith(opMS, opsPerS float64, failed int) report {
	return report{Seed: 1, P: 2, Workloads: []result{{
		Workload: "serve-repeat", Attempted: 100, Failed: failed,
		EndToEnd: []metric{
			single("op_p50_ms", "ms", "lower", opMS).bounded(0.10),
			single("ops_per_s", "1/s", "higher", opsPerS).bounded(0.10),
		},
	}}}
}

func TestWorsening(t *testing.T) {
	if got := worsening("lower", 100, 112); got < 0.1199 || got > 0.1201 {
		t.Errorf("a latency going 100 → 112 worsened by %v, want 0.12", got)
	}
	if got := worsening("higher", 50, 45); got < 0.0999 || got > 0.1001 {
		t.Errorf("a rate going 50 → 45 worsened by %v, want 0.10", got)
	}
	if got := worsening("higher", 50, 60); got >= 0 {
		t.Errorf("a rate going up counted as worsening: %v", got)
	}
}

func TestCompareBounds(t *testing.T) {
	base := reportWith(100, 50, 0)
	cases := []struct {
		name      string
		next      report
		regressed int
		failures  int
	}{
		{"identical", reportWith(100, 50, 0), 0, 0},
		{"inside the bound", reportWith(109, 46, 0), 0, 0},
		{"latency beyond the bound", reportWith(111, 50, 0), 1, 0},
		{"throughput beyond the bound", reportWith(100, 44, 0), 1, 0},
		{"both improved", reportWith(50, 100, 0), 0, 0},
		{"more failed operations", reportWith(100, 50, 3), 0, 1},
	}
	for _, c := range cases {
		rows, failures := compareReports(base, c.next)
		n := 0
		for _, r := range rows {
			if r.regressed {
				n++
			}
		}
		if n != c.regressed || len(failures) != c.failures {
			t.Errorf("%s: %d rows regressed and %d failures, want %d and %d", c.name, n, len(failures), c.regressed, c.failures)
		}
	}
}

func TestRunCompareExitCode(t *testing.T) {
	dir := t.TempDir()
	a, b, c := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "c.json")
	for path, r := range map[string]report{a: reportWith(100, 50, 0), b: reportWith(104, 49, 0), c: reportWith(130, 50, 0)} {
		if err := r.write(path); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if code := runCompare(&out, a, b); code != 0 {
		t.Errorf("two runs within the bounds exit %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := runCompare(&out, a, c); code != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("a 30%% slower run exits %d:\n%s", code, out.String())
	}
	if code := runCompare(&out, a, filepath.Join(dir, "missing.json")); code != 2 {
		t.Errorf("a missing file exits %d, want 2", code)
	}
}
