package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"sparsetask/internal/lint"
)

// TestReportSchemaGolden pins the -json output schema byte-for-byte. CI
// consumers parse lint-report.json; any field rename, reorder, or type
// change must bump lint.ReportVersion and this golden together.
func TestReportSchemaGolden(t *testing.T) {
	report := lint.Report{
		Version: lint.ReportVersion,
		Total:   1,
		Analyzers: []lint.AnalyzerStat{
			{Name: "hotpath", Findings: 1, WallMS: 2.5},
			{Name: "lockdiscipline", Findings: 0, WallMS: 8.25},
			{Name: "errflow", Findings: 0, WallMS: 1.75},
			{Name: "directive", Findings: 0, WallMS: 0},
		},
		Findings: []lint.Finding{
			{
				Analyzer: "hotpath",
				Pos:      token.Position{Filename: "internal/sparse/trsv.go", Line: 42, Column: 7},
				Message:  "string concatenation allocates",
			},
		},
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		t.Fatal(err)
	}

	const golden = `{
  "version": 2,
  "total": 1,
  "analyzers": [
    {
      "name": "hotpath",
      "findings": 1,
      "wall_ms": 2.5
    },
    {
      "name": "lockdiscipline",
      "findings": 0,
      "wall_ms": 8.25
    },
    {
      "name": "errflow",
      "findings": 0,
      "wall_ms": 1.75
    },
    {
      "name": "directive",
      "findings": 0,
      "wall_ms": 0
    }
  ],
  "findings": [
    {
      "analyzer": "hotpath",
      "position": {
        "Filename": "internal/sparse/trsv.go",
        "Offset": 0,
        "Line": 42,
        "Column": 7
      },
      "message": "string concatenation allocates"
    }
  ]
}
`
	if buf.String() != golden {
		t.Errorf("report schema drifted from golden:\ngot:\n%s\nwant:\n%s", buf.String(), golden)
	}
}

// TestReportRoundTrip checks the schema is self-describing enough for a
// consumer: decode what we encode and reject unknown versions.
func TestReportRoundTrip(t *testing.T) {
	in := lint.Report{Version: lint.ReportVersion, Total: 0, Analyzers: []lint.AnalyzerStat{}, Findings: []lint.Finding{}}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out lint.Report
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Version != lint.ReportVersion {
		t.Fatalf("version round-trip: got %d, want %d", out.Version, lint.ReportVersion)
	}
}

// TestSelectAnalyzers pins -analyzer's parsing: names resolve in order, and
// an unknown or repeated name is refused with a message naming it.
func TestSelectAnalyzers(t *testing.T) {
	for _, tc := range []struct {
		only   string
		want   []string // the analyzers run, in order; nil for a refusal
		refuse string   // what the refusal names
	}{
		{"", nil, ""},
		{"errflow", []string{"errflow"}, ""},
		{"hotpath, lockdiscipline", []string{"hotpath", "lockdiscipline"}, ""},
		{"errflow,errflow", nil, `"errflow" is named twice`},
		{"hotpath,lockdiscipline,hotpath", nil, `"hotpath" is named twice`},
		{"bce", nil, `unknown analyzer "bce"`},
		{"errflow,", nil, `unknown analyzer ""`},
	} {
		got, err := selectAnalyzers(tc.only)
		if tc.refuse != "" {
			if err == nil || !strings.HasPrefix(err.Error(), "-analyzer "+tc.only+":") || !strings.Contains(err.Error(), tc.refuse) {
				t.Errorf("-analyzer %q: got %v, want a refusal naming %s", tc.only, err, tc.refuse)
			}
			continue
		}
		if err != nil {
			t.Errorf("-analyzer %q: refused: %v", tc.only, err)
			continue
		}
		want := tc.want
		if tc.only == "" {
			want = nil
			for _, a := range lint.Analyzers() {
				want = append(want, a.Name)
			}
		}
		var names []string
		for _, a := range got {
			names = append(names, a.Name)
		}
		if strings.Join(names, ",") != strings.Join(want, ",") {
			t.Errorf("-analyzer %q runs %v, want %v", tc.only, names, want)
		}
	}
}
