// Package lint implements sparselint, the repo-specific static-analysis
// pass. It turns the discipline rules the sparse-solver stack only enforced
// by convention — zero-allocation hot paths, lock hygiene in the scheduler
// and serving layer, typed atomics and checked errors — into machine-checked
// gates (see cmd/sparselint and `make lint`). What `go vet` already checks
// (copied locks and atomics) is left to vet, which scripts/lint.sh runs
// first. What a test catches by running the code is left to the tests:
// goroutine lifecycles to the leakcheck gate in the TestMain of server,
// route, sched and rt; deque ownership to sched's steal-path stress test
// (TestStealPathsRunEveryTaskOnce); the determinism of every builder to the
// module's built-twice test (TestBuiltTwice).
//
// The loader is stdlib-only, no x/tools. It loads what the go tool builds:
// one `go list -deps -export` per module names each package's files, in
// dependency order, and builds the export data of everything else. Module
// packages are parsed with go/parser and type-checked with go/types; their
// imports from outside the module (the standard library) are read from that
// export data. Each analyzer walks the typed ASTs of the whole module at
// once, so a whole-program rule (hot-path propagation) sees every call site.
//
// # Engines
//
// Rules that depend on the path taken are clients of one CFG + worklist
// dataflow engine (cfg.go, dataflow.go): lockdiscipline (held locks) and
// errflow (unchecked errors), each over every function body from
// funcBodies. hotpath's three AST rules stay AST walks on purpose: they are
// flow-insensitive, so a port would only add code. hotpath asks the
// compiler, in one `go build`, which heap escapes and bounds checks it
// keeps. The call graph (callgraph.go) serves the one whole-module rule,
// hotpath's propagation.
//
// Request admission is not a lint rule: the server package's
// TestSpecCeilings walks JobSpec and holds every numeric field to a ceiling
// in its validate, or names it as unbounded.
//
// # What it sees
//
// It loads the files `go list` reports that `go build` selects for this
// GOOS/GOARCH without the race tag, and Go source only: it cannot see
// assembly. A kernel with an
// assembly body (rowrun_amd64.s, blas/gemm_amd64.s) is a declaration
// without a body here, so the //sparselint:hotpath roots stay on the Go
// dispatchers that choose between the assembly and the Go bodies, and the
// Go bodies, the path of every other build, are checked through them.
//
// # Annotations
//
// Annotations are Go directive comments (no space after //, one per line)
// in a function's doc comment:
//
//	//sparselint:hotpath          — function is held to its budget of heap
//	//                              escapes and loop bounds checks and must not
//	//                              grow, format or concatenate; the obligation
//	//                              propagates over the call graph (hotpath)
//	//sparselint:coldcall <reason> — reachable from hot code by design, e.g.
//	//                              a grow or error path; stops hot-path
//	//                              propagation, must be called conditionally
//
// # Suppression
//
// A finding is suppressed by a directive on the same line or the line
// directly above it:
//
//	//lint:ignore sparselint/<analyzer> <reason>
//
// The reason is mandatory; a directive without one is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"position"`
	Message  string         `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (sparselint/%s)", f.Pos, f.Message, f.Analyzer)
}

// Analyzer is one named check run over a whole loaded program.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pass *Pass)
}

// Pass gives an analyzer access to the loaded program and a reporting sink.
type Pass struct {
	Prog     *Program
	analyzer *Analyzer
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.reportAt(p.Prog.Fset.Position(pos), format, args...)
}

// reportAt records a finding outside the loaded Go files (hotpath's budget).
func (p *Pass) reportAt(pos token.Position, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full sparselint analyzer set.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		hotpathAnalyzer(),
		lockDisciplineAnalyzer(),
		atomicFieldAnalyzer(),
		errflowAnalyzer(),
	}
}

// AnalyzerByName resolves one analyzer, for the fixture tests.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// AnalyzerStat is one analyzer's slice of a run: surviving finding count and
// wall time. It is part of the stable machine-readable report schema.
type AnalyzerStat struct {
	Name     string  `json:"name"`
	Findings int     `json:"findings"`
	WallMS   float64 `json:"wall_ms"`
}

// Report is the machine-readable result of a sparselint run (the lint.sh
// lint-report.json artifact). Version guards schema evolution: consumers
// must reject versions they do not know.
type Report struct {
	Version   int            `json:"version"`
	Total     int            `json:"total"`
	Analyzers []AnalyzerStat `json:"analyzers"`
	Findings  []Finding      `json:"findings"`
}

// ReportVersion is the current Report schema version. Version 2 added the
// dataflow analyzers to the stats block; which analyzers it lists is not part
// of the schema.
const ReportVersion = 2

// Run executes the analyzers over prog, applies //lint:ignore suppressions,
// and returns the surviving findings sorted by position.
func Run(prog *Program, analyzers []*Analyzer) []Finding {
	findings, _ := RunStats(prog, analyzers)
	return findings
}

// lintWorkers is the bounded pool size for running analyzers.
func lintWorkers() int {
	return min(max(runtime.NumCPU(), 1), 8)
}

// RunStats is Run plus per-analyzer surviving-finding counts and wall times
// (in analyzer order, with a trailing "directive" entry for the suppression
// machinery's own findings). Analyzers run concurrently on a bounded worker
// pool — the typed ASTs are read-only by contract — and each
// writes to its own finding slice; concatenation in registration order plus
// the final position sort keep the output byte-identical to a serial run.
func RunStats(prog *Program, analyzers []*Analyzer) ([]Finding, []AnalyzerStat) {
	perAnalyzer := make([][]Finding, len(analyzers))
	walls := make([]float64, len(analyzers))
	sem := make(chan struct{}, lintWorkers())
	var wg sync.WaitGroup
	for i, a := range analyzers {
		wg.Add(1)
		go func(i int, a *Analyzer) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			a.Run(&Pass{Prog: prog, analyzer: a, findings: &perAnalyzer[i]})
			walls[i] = float64(time.Since(start)) / float64(time.Millisecond)
		}(i, a)
	}
	wg.Wait()
	var findings []Finding
	stats := make([]AnalyzerStat, 0, len(analyzers)+1)
	for i, a := range analyzers {
		findings = append(findings, perAnalyzer[i]...)
		stats = append(stats, AnalyzerStat{
			Name:     a.Name,
			Findings: len(perAnalyzer[i]),
			WallMS:   walls[i],
		})
	}
	sup, malformed := collectSuppressions(prog)
	kept := findings[:0]
	for _, f := range findings {
		if s := sup.matches(f); s != nil {
			s.used = true
			for i := range stats {
				if stats[i].Name == f.Analyzer {
					stats[i].Findings--
				}
			}
		} else {
			kept = append(kept, f)
		}
	}
	kept = append(kept, malformed...)
	// A directive that suppresses nothing is stale: the finding it once
	// covered moved or was fixed, and a dormant ignore is a hole waiting for
	// the next real finding on that line. Only directives naming an analyzer
	// that actually ran are judged — a partial -analyzer run cannot see what
	// the full set suppresses.
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, s := range sup.ordered() {
		if !s.used && ran[s.analyzer] {
			kept = append(kept, Finding{
				Analyzer: "directive",
				Pos:      s.pos,
				Message:  fmt.Sprintf("lint:ignore sparselint/%s suppresses nothing; remove the stale directive", s.analyzer),
			})
		}
	}
	dirCount := 0
	for _, f := range kept {
		if f.Analyzer == "directive" {
			dirCount++
		}
	}
	stats = append(stats, AnalyzerStat{Name: "directive", Findings: dirCount})
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept, stats
}

// ----------------------------------------------------------- suppressions

var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+(\S+)(.*)$`)

type suppressionKey struct {
	file     string
	line     int
	analyzer string
}

// suppression is one well-formed //lint:ignore directive; used flips when it
// actually swallows a finding, so stale directives can be reported.
type suppression struct {
	analyzer string
	pos      token.Position
	used     bool
}

type suppressions map[suppressionKey]*suppression

// matches returns the directive covering f — on f's own line or the line
// directly above — or nil.
func (s suppressions) matches(f Finding) *suppression {
	if d := s[suppressionKey{f.Pos.Filename, f.Pos.Line, f.Analyzer}]; d != nil {
		return d
	}
	return s[suppressionKey{f.Pos.Filename, f.Pos.Line - 1, f.Analyzer}]
}

// ordered returns the directives sorted by position for deterministic stale
// reporting.
func (s suppressions) ordered() []*suppression {
	out := make([]*suppression, 0, len(s))
	for _, d := range s {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos.Filename != out[j].pos.Filename {
			return out[i].pos.Filename < out[j].pos.Filename
		}
		return out[i].pos.Line < out[j].pos.Line
	})
	return out
}

// collectSuppressions scans every comment for //lint:ignore directives.
// Malformed directives (wrong target, missing reason) come back as findings
// so a typo cannot silently disable a gate. Validity is judged against the
// full analyzer set, not the analyzers of this run, so a filtered -analyzer
// run does not misreport directives for the analyzers it skipped.
func collectSuppressions(prog *Program) (suppressions, []Finding) {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	sup := make(suppressions)
	var malformed []Finding
	bad := func(pos token.Pos, format string, args ...any) {
		malformed = append(malformed, Finding{
			Analyzer: "directive",
			Pos:      prog.Fset.Position(pos),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					m := ignoreRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					target, reason := m[1], strings.TrimSpace(m[2])
					name, ok := strings.CutPrefix(target, "sparselint/")
					if !ok || !known[name] {
						bad(c.Pos(), "lint:ignore target %q is not a sparselint analyzer", target)
						continue
					}
					if reason == "" {
						bad(c.Pos(), "lint:ignore sparselint/%s needs a reason", name)
						continue
					}
					p := prog.Fset.Position(c.Pos())
					d := &suppression{analyzer: name, pos: p}
					sup[suppressionKey{p.Filename, p.Line, name}] = d
				}
			}
		}
	}
	return sup, malformed
}

// ------------------------------------------------------------ annotations

// annotationArg returns the argument text of a `//sparselint:<tag>`
// directive in doc (the coldcall reason), and whether the directive is
// present at all. Annotations are Go directive comments — no space after
// `//`, one directive per line — so prose that merely mentions an
// annotation can never activate it.
func annotationArg(doc *ast.CommentGroup, tag string) (string, bool) {
	if doc == nil {
		return "", false
	}
	prefix := "//sparselint:" + tag
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, prefix)
		if !ok {
			continue
		}
		if rest == "" {
			return "", true
		}
		if rest[0] == ' ' || rest[0] == '\t' {
			return strings.TrimSpace(rest), true
		}
		// A longer tag with this one as a prefix: not a match.
	}
	return "", false
}

// hasAnnotation reports whether doc carries the `//sparselint:<tag>`
// directive.
func hasAnnotation(doc *ast.CommentGroup, tag string) bool {
	_, ok := annotationArg(doc, tag)
	return ok
}
