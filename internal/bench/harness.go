// Package bench is the experiment harness: one Experiment per table or
// figure of the paper's evaluation section, each regenerating the same rows
// or series on the scaled synthetic suite via the discrete-event simulator.
//
// Five solver versions are compared, mirroring the paper's §5:
//
//	libcsr     — BSP over MKL-style thread chunking (block = m/workers)
//	libcsb     — BSP over CSB tiles
//	deepsparse — OpenMP-task style (LIFO + stealing)
//	hpx        — futures/dataflow style (FIFO + NUMA-aware hints)
//	regent     — region/privilege style (serial analysis pipeline)
//
// Each version runs at its §5.4 per-architecture block-count sweet spot.
package bench

import (
	"fmt"
	"io"
	"math"
	"strings"

	"sparsetask/internal/cachesim"
	"sparsetask/internal/graph"
	"sparsetask/internal/machine"
	"sparsetask/internal/matgen"
	"sparsetask/internal/program"
	"sparsetask/internal/sim"
	"sparsetask/internal/solver"
	"sparsetask/internal/sparse"
	"sparsetask/internal/trace"
)

// Config selects scale and scope for an experiment run.
type Config struct {
	Preset matgen.Preset
	Seed   int64
	// Iterations per solver run; 0 selects per-experiment defaults.
	Iterations int
	// Matrices filters the suite by name; empty means the experiment's
	// default subset.
	Matrices []string
	// MaxMatrices caps suite size (0 = no cap); useful for quick runs.
	MaxMatrices int
	Out         io.Writer
}

func (c *Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

func (c *Config) iters(def int) int {
	if c.Iterations > 0 {
		return c.Iterations
	}
	return def
}

// suite returns the selected matrix specs.
func (c *Config) suite() ([]matgen.Spec, error) {
	all := matgen.Suite()
	if len(c.Matrices) > 0 {
		var out []matgen.Spec
		for _, name := range c.Matrices {
			s, err := matgen.SpecByName(name)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		return out, nil
	}
	if c.MaxMatrices > 0 && c.MaxMatrices < len(all) {
		all = all[:c.MaxMatrices]
	}
	return all, nil
}

// Report is the structured output of an experiment: a printable table plus
// named metrics for tests and the headline summary.
type Report struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	Metrics map[string]float64
}

func newReport(id, title string, cols ...string) *Report {
	return &Report{ID: id, Title: title, Columns: cols, Metrics: map[string]float64{}}
}

func (r *Report) addRow(cells ...string) { r.Rows = append(r.Rows, cells) }

func (r *Report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Write renders the report as an aligned text table.
func (r *Report) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(widths) {
				for p := len(cell); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(r.Columns)); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Experiment regenerates one paper table or figure.
type Experiment struct {
	ID    string
	Paper string
	Desc  string
	Run   func(cfg *Config) (*Report, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1", "matrix suite (scaled synthetic analogs)", runTable1},
		{"fig3", "Fig. 3", "task graph of the Listing 1 pseudocode (DOT)", runFig3},
		{"fig5", "Fig. 5", "first-touch placement, DeepSparse Lanczos on EPYC", runFig5},
		{"fig6", "Fig. 6", "skipping empty tasks, HPX Lanczos on Broadwell", runFig6},
		{"fig7", "Fig. 7", "reduce- vs dependency-based SpMM, Regent LOBPCG on Broadwell", runFig7},
		{"fig8", "Fig. 8", "L1/L2 misses of Lanczos versions on EPYC (vs libcsr)", runFig8},
		{"fig9", "Fig. 9", "Lanczos speedup over libcsr on Broadwell and EPYC", runFig9},
		{"fig10", "Fig. 10", "Lanczos execution flow graph (nlpkkt240 analog)", runFig10},
		{"fig11", "Fig. 11", "L1/L2/L3 misses of LOBPCG versions on Broadwell (vs libcsr)", runFig11},
		{"fig12", "Fig. 12", "LOBPCG speedup over libcsr on Broadwell and EPYC", runFig12},
		{"fig13", "Fig. 13", "LOBPCG execution flow graph (nlpkkt240 analog)", runFig13},
		{"fig14", "Fig. 14", "performance profiles of block-count bins (LOBPCG)", runFig14},
		{"heuristic", "§5.4", "block-size sweep: tasking overhead vs parallelism", runHeuristic},
		{"locality", "§5.2", "hierarchical vs uniform-random stealing: locality and LLC misses", runLocality},
		{"ablation", "§5.1", "scheduling ablations: HPX NUMA hints, Regent tracing, depth-first bias", runAblation},
		{"headline", "Abstract", "headline speedups and cache-miss reductions", runHeadline},
	}
}

// ByID resolves an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// ---------------------------------------------------------------- versions

// Version is one of the five solver implementations under comparison.
type Version struct {
	Name string
	// BlockCount returns the per-dimension tile count this version uses on
	// the given machine for a matrix with `rows` rows: the §5.4 sweet spots,
	// clamped so chunks keep a minimum work granularity on the smallest
	// matrices (the paper tunes per matrix; this is the same adjustment).
	BlockCount func(mach machine.Model, rows int) int
	// Policy builds the simulator scheduling policy with the preset's
	// overhead scale.
	Policy func(mach machine.Model, scale float64) sim.Policy
	// ReduceSpMM switches the SpMM task pattern (fig7 ablation only).
	ReduceSpMM bool
}

// Versions returns the five versions in the paper's plotting order.
func Versions() []Version {
	return []Version{
		{
			Name:       "libcsr",
			BlockCount: func(m machine.Model, rows int) int { return m.Cores },
			Policy: func(m machine.Model, scale float64) sim.Policy {
				p := sim.NewBSP(m.Cores)
				p.Scale = scale
				return p
			},
		},
		{
			Name:       "libcsb",
			BlockCount: func(m machine.Model, rows int) int { return clampBC(2*m.Cores, rows) },
			Policy: func(m machine.Model, scale float64) sim.Policy {
				p := sim.NewBSP(m.Cores)
				p.Scale = scale
				return p
			},
		},
		{
			Name: "deepsparse",
			BlockCount: func(m machine.Model, rows int) int {
				if m.Cores > 64 {
					return clampBC(96, rows) // EPYC sweet spot 64-127
				}
				return clampBC(48, rows) // Broadwell sweet spot 32-63
			},
			Policy: func(m machine.Model, scale float64) sim.Policy {
				p := sim.NewDeepSparse(m.Cores)
				p.Scale = scale
				return p
			},
		},
		{
			Name:       "hpx",
			BlockCount: func(m machine.Model, rows int) int { return clampBC(96, rows) }, // 64-127 on both
			Policy: func(m machine.Model, scale float64) sim.Policy {
				p := sim.NewHPX(m.Cores, m.NUMADomains, true)
				p.Scale = scale
				return p
			},
		},
		{
			Name:       "regent",
			BlockCount: func(m machine.Model, rows int) int { return clampBC(24, rows) }, // 16-31 on both
			Policy: func(m machine.Model, scale float64) sim.Policy {
				// -ll:cpu 24 -ll:util 4 on Broadwell; 110+18 on EPYC.
				util := m.Cores / 7
				if util < 1 {
					util = 1
				}
				p := sim.NewRegent(m.Cores-util, util, false)
				p.Scale = scale
				return p
			},
		},
	}
}

// clampBC keeps at least minChunkRows rows per chunk so the smallest scaled
// matrices are not over-decomposed past the point any real tuning would
// allow, while never dropping below the paper's minimum useful count of 8.
func clampBC(sweet, rows int) int {
	const minChunkRows = 64
	maxBC := rows / minChunkRows
	if maxBC < 8 {
		maxBC = 8
	}
	if sweet > maxBC {
		return maxBC
	}
	return sweet
}

// VersionByName resolves a version.
func VersionByName(name string) (Version, error) {
	for _, v := range Versions() {
		if v.Name == name {
			return v, nil
		}
	}
	return Version{}, fmt.Errorf("bench: unknown version %q", name)
}

// ---------------------------------------------------------------- plumbing

// SolverKind selects the benchmark application.
type SolverKind int

// The two benchmark applications of §4.
const (
	Lanczos SolverKind = iota
	LOBPCG
)

func (k SolverKind) String() string {
	if k == Lanczos {
		return "lanczos"
	}
	return "lobpcg"
}

// buildGraph constructs the per-iteration TDG of a solver over matrix coo
// tiled to the given block count. The experiments reproduce the paper's
// frameworks, none of which fuses tasks, so they simulate graph.Build's
// output — the source of the fused graph the solver itself iterates on; the
// task-fusion ablation compares graph.Fuse against that.
func buildGraph(coo *sparse.COO, k SolverKind, blockCount int, opt graph.Options, reduceSpMM bool) (*graph.TDG, error) {
	if blockCount < 1 {
		blockCount = 1
	}
	block := (coo.Rows + blockCount - 1) / blockCount
	csb := coo.ToCSB(block)
	switch k {
	case Lanczos:
		l, err := solver.NewLanczos(csb, 10)
		if err != nil {
			return nil, err
		}
		g := l.Graph().Source()
		// Options holds maps now, so compare the only field ablations vary.
		if !opt.SkipEmpty || reduceSpMM {
			return rebuild(l.Program(), g, csb, opt, reduceSpMM)
		}
		return g, nil
	case LOBPCG:
		l, err := solver.NewLOBPCG(csb, 8)
		if err != nil {
			return nil, err
		}
		g := l.Graph().Source()
		if !opt.SkipEmpty || reduceSpMM {
			return rebuild(l.Program(), g, csb, opt, reduceSpMM)
		}
		return g, nil
	}
	return nil, fmt.Errorf("bench: unknown solver %v", k)
}

// rebuild regenerates a TDG with non-default options, optionally switching
// every SpMM call to the reduce-based pattern.
func rebuild(p *program.Program, g *graph.TDG, csb *sparse.CSB, opt graph.Options, reduceSpMM bool) (*graph.TDG, error) {
	if reduceSpMM {
		for i := range p.Calls {
			if p.Calls[i].Kind == program.CSpMM {
				p.Calls[i].ReduceSpMM = true
				p.Calls[i].Name = "SpMM-red"
			}
		}
	}
	mats := map[program.OperandID]*sparse.CSB{}
	for id := range g.Mats {
		mats[id] = csb
	}
	return graph.Build(p, mats, opt)
}

// simMeasure runs `iters` iterations of g on a fresh simulator and returns
// the average per-iteration time (ns) and counters accumulated over the
// measured iterations. One warmup iteration (cold caches, like the paper's
// excluded setup) runs first and is not counted.
func simMeasure(mach machine.Model, pol sim.Policy, g *graph.TDG, iters int, firstTouch bool, rec *trace.Recorder) (float64, cachesim.Counters, error) {
	s := sim.New(mach, firstTouch)
	if firstTouch {
		s.PlaceFirstTouch(g, pol.Workers())
	} else {
		s.PlaceSerial(g)
	}
	if _, err := s.Run(g, pol, nil); err != nil { // warmup
		return 0, cachesim.Counters{}, err
	}
	var total int64
	var ctr cachesim.Counters
	for i := 0; i < iters; i++ {
		r, err := s.Run(g, pol, rec)
		if err != nil {
			return 0, cachesim.Counters{}, err
		}
		total += r.MakespanNs
		ctr.Add(r.Counters)
	}
	return float64(total) / float64(iters), ctr, nil
}

// scaledMachine returns the machine model adapted to the preset: caches
// shrunk by CacheDiv and the machine uniformly slowed by SlowDown so task
// compute time keeps the paper's ratio to runtime overheads.
func scaledMachine(name string, p matgen.Preset) (machine.Model, error) {
	m, err := machine.ByName(name)
	if err != nil {
		return m, err
	}
	return m.Scaled(p.CacheDiv).SlowDown(p.SlowDown), nil
}

// fmtX formats a speedup like the paper ("3.1x").
func fmtX(v float64) string { return fmt.Sprintf("%.2fx", v) }

// fmtMs formats nanoseconds as milliseconds.
func fmtMs(ns float64) string { return fmt.Sprintf("%.3f", ns/1e6) }

// geoMean returns the geometric mean of vs (which must be positive).
func geoMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}
