package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers. Spans of one operation (a round, a job, a replayed job) share Op.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root of its operation
	Op      int    `json:"op"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans and boundary counts in memory until the run ends. A nil
// *tracer is valid and records nothing, so the measured code is the same with
// tracing on and off.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
	nextOp int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]int64{}}
}

// ns converts a wall-clock instant (ours or one the server reported in a
// JobView) to nanoseconds since the tracer's epoch.
func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// newOp reserves an operation identifier.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// add records a finished span and returns its id (0 when not tracing).
func (t *tracer) add(parent, op int, layer, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		StartNS: t.ns(start), EndNS: t.ns(end)})
	return id
}

// begin opens a span whose end is set by end; it returns the span id so
// children can name it as their parent.
func (t *tracer) begin(parent, op int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(parent, op, layer, name, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.ns(time.Now())
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// count adds n to a named counter taken at a layer boundary.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover (children are clipped to the parent and
// overlapping children are counted once).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, cursor := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, cursor), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// layerSelfMS sums self times by layer over the spans whose operation passes
// keep, in milliseconds.
func layerSelfMS(spans []span, keep func(op int) bool) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		if keep(s.Op) {
			out[s.Layer] += float64(self[s.ID]) / 1e6
		}
	}
	return out
}

// traceFile is the document written to out/trace-<workload>.json.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Spans    []span           `json:"spans"`
	Counts   map[string]int64 `json:"counts"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	doc := traceFile{Workload: workload, Seed: seed, Spans: t.spans, Counts: t.counts}
	buf, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// traceMetrics are the metrics every traced run derives from its two passes.
func traceMetrics(untraced, traced pass, reference layerTable) []metric {
	pct := tailPercent(len(untraced.ops))
	return []metric{
		single("client.op_tail_ms", "ms", "lower", percentile(untraced.ops, pct)),
		single("client.tail_percentile", "%", "higher", pct),
		single("trace.residual_share", "share", "lower", reference.Residual),
		single("trace.overhead_share", "share", "lower", median(traced.ops)/median(untraced.ops)-1),
	}
}
