// Command sparselint runs the repo-specific static-analysis pass over the
// whole module: hot paths (propagated over the call graph) held to a
// per-function budget of the heap escapes and loop bounds checks the
// compiler reports, internal/lint/hotpath_budget.txt, and kept free of
// append growth, fmt and string concatenation; lock discipline and
// all-paths error-handling discipline in server/route/cmd (both
// flow-sensitive, over per-function CFGs); and typed atomics only. Copied
// locks and atomics are go vet's, which `make lint` runs first; deque
// ownership and the determinism of what is built from a matrix are held by
// tests (TestStealPathsRunEveryTaskOnce, TestBuiltTwice). It is stdlib-only
// (go/parser + go/types, the standard library read from the export data
// `go list -export` builds) and is wired into `make lint` / `make check`.
// It needs the go command on PATH: the loader
// runs `go list`, and the hotpath analyzer one `go build` with the
// compiler's escape and bounds-check reports, at the release the budget's
// first line names.
//
// Usage:
//
//	go run ./cmd/sparselint ./...
//	go run ./cmd/sparselint -json ./...
//	go run ./cmd/sparselint -analyzer hotpath,errflow ./...
//	go run ./cmd/sparselint -graph ./...
//
// The package-pattern argument is accepted for familiarity but the tool
// always analyzes the full module containing the working directory, and the
// modules nested in it (benchmark/) — hot-path propagation is a
// whole-program property.
//
// -json emits the versioned lint.Report schema (findings plus per-analyzer
// counts and wall times); lint.sh redirects it to lint-report.json.
// -graph dumps the interprocedural call graph (one edge per line) and exits
// without running analyzers.
//
// -analyzer refuses an unknown or repeated name.
//
// Exit status: 0 clean, 1 findings, 2 load or usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"sparsetask/internal/lint"
)

// selectAnalyzers resolves -analyzer's comma-separated names, in order; an
// empty list selects every analyzer. An unknown name is refused, and so is a
// repeated one: it would run the analyzer twice, and each finding a
// directive suppresses would be taken off both entries' counts.
func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	if only == "" {
		return lint.Analyzers(), nil
	}
	var out []*lint.Analyzer
	seen := make(map[string]bool)
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a := lint.AnalyzerByName(name)
		switch {
		case a == nil:
			return nil, fmt.Errorf("-analyzer %s: unknown analyzer %q (try -list)", only, name)
		case seen[name]:
			return nil, fmt.Errorf("-analyzer %s: %q is named twice", only, name)
		}
		seen[name] = true
		out = append(out, a)
	}
	return out, nil
}

func main() {
	jsonOut := flag.Bool("json", false, "emit the versioned report schema as JSON")
	list := flag.Bool("list", false, "list analyzers and exit")
	graph := flag.Bool("graph", false, "dump the call graph and exit without analyzing")
	only := flag.String("analyzer", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sparselint:", err)
		os.Exit(2)
	}

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sparselint:", err)
		os.Exit(2)
	}
	prog, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sparselint:", err)
		os.Exit(2)
	}

	if *graph {
		fmt.Print(lint.BuildCallGraph(prog).Dump(prog.Fset))
		return
	}

	findings, stats := lint.RunStats(prog, analyzers)

	if *jsonOut {
		report := lint.Report{
			Version:   lint.ReportVersion,
			Total:     len(findings),
			Analyzers: stats,
			Findings:  findings,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "sparselint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "sparselint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
