// Package trace records per-task execution intervals (task, worker, kernel,
// start, end) and renders them as execution flow graphs — the per-worker
// timelines of the paper's Figs. 10 and 13. Both the real (goroutine)
// runtimes and the discrete-event simulator write the same Recorder, so flow
// graphs from either source share tooling.
package trace

import (
	"fmt"
	"io"
	"sort"
)

// Event is one executed task interval. Times are in nanoseconds from the
// start of the run (wall-clock for exec mode, virtual for sim mode).
type Event struct {
	Task   int32
	Worker int32
	Call   int32
	Kernel string
	Start  int64
	End    int64
}

// Recorder collects events with per-worker buffers so recording is
// contention- and lock-free during execution.
type Recorder struct {
	perWorker [][]Event
}

// NewRecorder returns a recorder for the given worker count.
func NewRecorder(workers int) *Recorder {
	return &Recorder{perWorker: make([][]Event, workers)}
}

// Record appends an event for worker w. Only worker w may call Record(w,...).
func (r *Recorder) Record(w int, e Event) {
	e.Worker = int32(w)
	r.perWorker[w] = append(r.perWorker[w], e)
}

// Workers returns the recorder's worker count.
func (r *Recorder) Workers() int { return len(r.perWorker) }

// Events merges all per-worker buffers sorted by start time.
func (r *Recorder) Events() []Event {
	var out []Event
	for _, evs := range r.perWorker {
		out = append(out, evs...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Worker < out[j].Worker
	})
	return out
}

// Span returns the time from the earliest start to the latest end, i.e. the
// makespan of the recorded execution.
func (r *Recorder) Span() int64 {
	first, last := int64(-1), int64(0)
	for _, evs := range r.perWorker {
		for _, e := range evs {
			if first < 0 || e.Start < first {
				first = e.Start
			}
			if e.End > last {
				last = e.End
			}
		}
	}
	if first < 0 {
		return 0
	}
	return last - first
}

// KernelSpan summarizes one kernel's activity window and total busy time.
type KernelSpan struct {
	Kernel string
	First  int64
	Last   int64
	Busy   int64
	Tasks  int
}

// KernelSpans aggregates events by kernel name, ordered by first start.
// Overlap between spans of different kernels is the pipelining the paper
// credits for the AMT cache behavior.
func (r *Recorder) KernelSpans() []KernelSpan {
	agg := map[string]*KernelSpan{}
	for _, evs := range r.perWorker {
		for _, e := range evs {
			k, ok := agg[e.Kernel]
			if !ok {
				k = &KernelSpan{Kernel: e.Kernel, First: e.Start}
				agg[e.Kernel] = k
			}
			if e.Start < k.First {
				k.First = e.Start
			}
			if e.End > k.Last {
				k.Last = e.End
			}
			k.Busy += e.End - e.Start
			k.Tasks++
		}
	}
	out := make([]KernelSpan, 0, len(agg))
	for _, k := range agg {
		out = append(out, *k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].First < out[j].First })
	return out
}

// PipelineOverlap returns the fraction of busy time during which tasks of at
// least two *different* kernels are executing simultaneously: ~0 for a
// barrier-separated BSP run (one kernel at a time), approaching 1 for deeply
// pipelined AMT runs. Computed by a sweep over task start/end events, so it
// is meaningful across multiple recorded iterations.
func (r *Recorder) PipelineOverlap() float64 {
	type edge struct {
		t      int64
		kernel string
		delta  int
	}
	var edges []edge
	for _, evs := range r.perWorker {
		for _, e := range evs {
			edges = append(edges, edge{e.Start, e.Kernel, 1}, edge{e.End, e.Kernel, -1})
		}
	}
	if len(edges) == 0 {
		return 0
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].delta < edges[j].delta // process ends before starts
	})
	active := map[string]int{}
	distinct := 0
	var busy, multi int64
	prev := edges[0].t
	for _, e := range edges {
		if e.t > prev {
			if distinct >= 1 {
				busy += e.t - prev
			}
			if distinct >= 2 {
				multi += e.t - prev
			}
			prev = e.t
		}
		active[e.kernel] += e.delta
		switch {
		case e.delta > 0 && active[e.kernel] == 1:
			distinct++
		case e.delta < 0 && active[e.kernel] == 0:
			distinct--
		}
	}
	if busy == 0 {
		return 0
	}
	return float64(multi) / float64(busy)
}

// WriteTSV dumps events as worker\tkernel\tstart\tend\ttask rows, the format
// consumed by external Gantt plotters for the flow-graph figures.
func (r *Recorder) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "worker\tkernel\tstart_ns\tend_ns\ttask"); err != nil {
		return err
	}
	for _, e := range r.Events() {
		if _, err := fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", e.Worker, e.Kernel, e.Start, e.End, e.Task); err != nil {
			return err
		}
	}
	return nil
}

// RenderASCII draws a coarse per-worker timeline (one row per worker, one
// column per time bucket, letter = kernel most active in that bucket) — a
// terminal rendition of the paper's execution flow graphs. A timeline needs
// at least one column; cols < 1 is an error.
func (r *Recorder) RenderASCII(w io.Writer, cols int) error {
	if cols < 1 {
		return fmt.Errorf("trace: timeline width %d, want at least 1 column", cols)
	}
	span := r.Span()
	if span == 0 {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	kernels := map[string]byte{}
	next := byte('A')
	for _, ks := range r.KernelSpans() {
		if _, ok := kernels[ks.Kernel]; !ok {
			kernels[ks.Kernel] = next
			next++
		}
	}
	var t0 int64 = -1
	for _, evs := range r.perWorker {
		for _, e := range evs {
			if t0 < 0 || e.Start < t0 {
				t0 = e.Start
			}
		}
	}
	for wi, evs := range r.perWorker {
		row := make([]byte, cols)
		fill := make([]int64, cols)
		for i := range row {
			row[i] = '.'
		}
		for _, e := range evs {
			lo := int((e.Start - t0) * int64(cols) / span)
			hi := int((e.End - t0) * int64(cols) / span)
			if hi >= cols {
				hi = cols - 1
			}
			for c := lo; c <= hi; c++ {
				d := e.End - e.Start
				if d >= fill[c] {
					fill[c] = d
					row[c] = kernels[e.Kernel]
				}
			}
		}
		if _, err := fmt.Fprintf(w, "w%02d |%s|\n", wi, row); err != nil {
			return err
		}
	}
	// Legend.
	type kv struct {
		k string
		b byte
	}
	var legend []kv
	for k, b := range kernels {
		legend = append(legend, kv{k, b})
	}
	sort.Slice(legend, func(i, j int) bool { return legend[i].b < legend[j].b })
	for _, l := range legend {
		if _, err := fmt.Fprintf(w, "  %c = %s\n", l.b, l.k); err != nil {
			return err
		}
	}
	return nil
}
