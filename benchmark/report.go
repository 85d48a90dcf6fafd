package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// driverEndToEnd and driverPerLayer name the metrics of the last output line:
// the ones every workload measures, so BENCHMARK.json can list them. A
// workload's other metrics (its component timings, its own layers) are
// printed above that line and written to the results file.
var (
	driverEndToEnd = []string{"op_p50_ms", "ops_per_s", "setup_s"}
	driverPerLayer = []string{
		"roofline.peak_gbps", "blas.gemm_gflops",
		"sparse.convert_ms", "sparse.spmv_gbps", "sparse.spmv_frac_peak",
		"graph.build_ms", "graph.tasks", "graph.edges", "graph.depth",
		"kernels.seq_run_ms",
		"sched.task_overhead_ns", "sched.steal_share",
		"rt.run_ms.bsp", "rt.run_ms.deepsparse", "rt.run_ms.hpx", "rt.run_ms.regent",
		"rt.overhead_share.bsp", "rt.overhead_share.deepsparse", "rt.overhead_share.hpx", "rt.overhead_share.regent",
		"rt.par_speedup.deepsparse",
		"solver.iters", "solver.self_ms",
		"client.op_tail_ms",
		"trace.residual_share", "trace.overhead_share",
	}
)

// result is everything one workload's run produced.
type result struct {
	Workload   string       `json:"workload"`
	Why        string       `json:"why"`
	Loop       string       `json:"loop"`
	Attempted  int          `json:"ops_attempted"`
	Failed     int          `json:"ops_failed"`
	Problems   []string     `json:"problems,omitempty"`
	EndToEnd   []metric     `json:"end_to_end"`
	Layers     []metric     `json:"per_layer,omitempty"`
	Guards     []guard      `json:"guards,omitempty"`
	LayerTable []layerTable `json:"layer_tables,omitempty"`
}

// absorb adds a pass's operation counts, failures and guards.
func (r *result) absorb(p pass) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	r.Problems = append(r.Problems, p.problems...)
	for _, g := range p.guards {
		r.addGuard(g)
	}
}

// addGuard records a guard; one checked in several passes holds only if it
// held in each, and reports the pass that broke it.
func (r *result) addGuard(g guard) {
	for i, have := range r.Guards {
		if have.Name == g.Name {
			if have.OK {
				r.Guards[i] = g
			}
			return
		}
	}
	r.Guards = append(r.Guards, g)
}

// correct: no operation failed and no hard guard tripped.
func (r *result) correct() bool {
	for _, g := range r.Guards {
		if g.Hard && !g.OK {
			return false
		}
	}
	return r.Failed == 0
}

// layerTable splits one operation's end-to-end time into per-layer self
// times and says how much of it the split leaves unexplained.
type layerTable struct {
	Title      string     `json:"title"`
	Rows       []layerRow `json:"rows"`
	SumMS      float64    `json:"sum_ms"`
	Against    string     `json:"against"` // what the sum is compared with
	EndToEndMS float64    `json:"end_to_end_ms"`
	Residual   float64    `json:"residual_share"`
}

type layerRow struct {
	Layer  string  `json:"layer"`
	SelfMS float64 `json:"self_ms"`
}

// residualLimit is the share of the untraced end-to-end time a layer table
// may leave unexplained.
const residualLimit = 0.15

func newLayerTable(title string, selfMS map[string]float64, against string, endToEndMS float64) layerTable {
	t := layerTable{Title: title, Against: against, EndToEndMS: endToEndMS}
	for layer, v := range selfMS {
		t.Rows = append(t.Rows, layerRow{layer, v})
		t.SumMS += v
	}
	sort.Slice(t.Rows, func(i, j int) bool { return t.Rows[i].SelfMS > t.Rows[j].SelfMS })
	t.Residual = math.Abs(t.SumMS-endToEndMS) / endToEndMS
	return t
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s (%s) ==\n   %s\n", r.Workload, r.Loop, r.Why)
	fmt.Fprintf(w, "   ops_attempted %d  ops_failed %d\n", r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   FAILED: %s\n", p)
	}
	printMetrics(w, "end-to-end (tracing off)", r.EndToEnd)
	if len(r.Layers) > 0 {
		printMetrics(w, "per layer (traced run)", r.Layers)
	}
	for _, t := range r.LayerTable {
		fmt.Fprintf(w, "   layer table: %s\n", t.Title)
		for _, row := range t.Rows {
			fmt.Fprintf(w, "     %-10s %12.3f ms  %5.1f%%\n", row.Layer, row.SelfMS, 100*row.SelfMS/t.SumMS)
		}
		verdict := "ok"
		if !(t.Residual <= residualLimit) {
			verdict = fmt.Sprintf("EXCEEDS %.0f%%", 100*residualLimit)
		}
		fmt.Fprintf(w, "     %-10s %12.3f ms  against %s, %.3f ms: residual %.1f%% (%s)\n",
			"sum", t.SumMS, t.Against, t.EndToEndMS, 100*t.Residual, verdict)
	}
	for _, g := range r.Guards {
		verdict, kind := "ok", "soft"
		if !g.OK {
			verdict = "VIOLATED"
		}
		if g.Hard {
			kind = "hard"
		}
		fmt.Fprintf(w, "   guard %-24s %-8s (%s) %s\n", g.Name, verdict, kind, g.Detail)
	}
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintf(w, "   %s\n", title)
	for _, m := range ms {
		spread := ""
		if m.N > 1 {
			spread = fmt.Sprintf("  [q1 %.6g, q3 %.6g, n=%d]", m.Q1, m.Q3, m.N)
		}
		bound := ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("  bound %.2f", m.Bound)
		}
		fmt.Fprintf(w, "     %-34s %14.6g %-8s%s%s\n", m.Name, m.Value, m.Unit, bound, spread)
	}
}

// finite drops metrics that have no value — a ratio over nothing, a median of
// no samples — which JSON cannot carry; a listed one then fails the run in
// driverLine, by name.
func finite(ms []metric) []metric {
	isFinite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	out := ms[:0]
	for _, m := range ms {
		if isFinite(m.Value) && isFinite(m.Q1) && isFinite(m.Q3) {
			out = append(out, m)
		} else {
			fmt.Fprintf(os.Stderr, "benchmark: %s has no value\n", m.Name)
		}
	}
	return out
}

// driverLine is the contract's last output line.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine selects the listed metrics: the end-to-end ones from an untraced
// run, the per-layer ones from a traced run. A listed metric the run did not
// produce is a bug in the benchmark and marks the run incorrect.
func (r *result) driverLine() driverLine {
	names, from := driverEndToEnd, r.EndToEnd
	if len(r.Layers) > 0 {
		names, from = driverPerLayer, r.Layers
	}
	line := driverLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverMetric{}}
	for _, name := range names {
		found := false
		for _, m := range from {
			if m.Name == name {
				line.Metrics[name] = driverMetric{m.Value, m.Unit}
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "benchmark: %s did not produce %s\n", r.Workload, name)
			line.Correct = false
		}
	}
	return line
}

// report is the results file: what -compare reads.
type report struct {
	Seed      int64    `json:"seed"`
	P         int      `json:"p"`
	Go        string   `json:"go"`
	Seconds   float64  `json:"seconds"`
	Trace     bool     `json:"trace"`
	Quick     bool     `json:"quick"`
	Workloads []result `json:"workloads"`
}

func (r report) write(path string) error {
	buf, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var r report
	buf, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(buf, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
