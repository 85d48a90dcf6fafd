package main

import (
	"fmt"
	"time"
)

// bound is the share of the base median by which an end-to-end metric may
// worsen before -compare (and the PR driver, for the metrics BENCHMARK.json
// lists) counts a regression. README.md has the measured run-to-run spreads
// it was set from: the builder's two-vCPU VM slows by a third for minutes at
// a time, so nothing tighter than the contract's ceiling holds there.
const bound = 0.25

// A run sets the workload up setupReps times, and keeps going — up to
// maxSetupReps — while all its set-ups together took less than setupBudget: a
// set-up of a fifth of a second needs more than three samples for a steady
// median. setup_s is the median; the last set-up is the one that gets measured.
const (
	setupReps    = 3
	maxSetupReps = 9
	setupBudget  = 2.0 // seconds
)

// env is what a workload is built from: the seed its inputs derive from and
// the parallelism P = min(nproc, 4) the whole process runs at.
type env struct {
	seed    int64
	p       int
	seconds float64
	quick   bool // smoke-test sizes: results are not comparable with a full run
}

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	loop string
	// setup builds everything the measured loop needs. Inputs the benchmark
	// itself generates (serve-cold's request bodies) are made beforehand by
	// prepare, when set, and stay out of setup_s.
	prepare func(e env) (any, error)
	setup   func(e env, prepared any, tr *tracer) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// measure runs whole operations until d has passed (at least one).
	measure(tr *tracer, d time.Duration) pass
	// verify checks the pass's outputs against references computed
	// independently of the code under test, outside every timing, and counts
	// each miss as a failed operation.
	verify(p *pass)
	// layers runs the traced run's per-layer probes and splits an operation's
	// time into layer tables; the first table is the reference operation's.
	// inPass selects the tracer operations of the traced pass.
	layers(tr *tracer, inPass func(op int) bool, untraced, traced pass) ([]metric, []guard, []layerTable)
	close() error
}

// pass is what one measuring pass observed.
type pass struct {
	ops       []float64            // per-operation latency, ms
	comp      map[string][]float64 // component timings by metric name, ms
	compNames []string             // … in the order they are reported
	wall      time.Duration
	attempted int
	failed    int
	problems  []string // what failed, first few
	guards    []guard
	jobs      []jobRecord  // serving only
	cluster   clusterDelta // serving only: what /metrics counted meanwhile
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 5 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// guard is a workload-validity check: that the workload still exercises what
// it was chosen for. Hard guards fail the run; soft ones depend on timing and
// are only reported.
type guard struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Hard   bool   `json:"hard"`
	Detail string `json:"detail"`
}

// metric is one reported number with the spread of the samples behind it.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
	Value  float64 `json:"value"`           // the median of the samples
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// sampled summarizes timing samples (lower is better) by their median.
func sampled(name, unit string, samples []float64) metric {
	q1, med, q3 := quartiles(samples)
	return metric{Name: name, Unit: unit, Better: "lower", Value: med, Q1: q1, Q3: q3, N: len(samples)}
}

// single is a metric with one observation.
func single(name, unit, better string, v float64) metric {
	return metric{Name: name, Unit: unit, Better: better, Value: v, Q1: v, Q3: v, N: 1}
}

func (m metric) bounded(b float64) metric {
	m.Bound = b
	return m
}

// endToEnd assembles a workload's end-to-end metrics: the three every
// workload reports (and BENCHMARK.json lists), then its component timings.
func endToEnd(setups []float64, p pass) []metric {
	done := p.attempted - p.failed
	out := []metric{
		sampled("op_p50_ms", "ms", p.ops).bounded(bound),
		single("ops_per_s", "1/s", "higher", float64(done)/p.wall.Seconds()).bounded(bound),
		sampled("setup_s", "s", setups).bounded(bound),
	}
	for _, name := range p.compNames {
		out = append(out, sampled(name, "ms", p.comp[name]).bounded(bound))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
