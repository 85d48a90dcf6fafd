package trace

import (
	"bytes"
	"strings"
	"testing"
)

func sampleRecorder() *Recorder {
	r := NewRecorder(2)
	r.Record(0, Event{Task: 0, Kernel: "SpMM", Start: 0, End: 100})
	r.Record(0, Event{Task: 1, Kernel: "XY", Start: 100, End: 150})
	r.Record(1, Event{Task: 2, Kernel: "SpMM", Start: 10, End: 90})
	r.Record(1, Event{Task: 3, Kernel: "XTY", Start: 95, End: 140})
	return r
}

func TestEventsSorted(t *testing.T) {
	r := sampleRecorder()
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("%d events, want 4", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Start < evs[i-1].Start {
			t.Fatal("events not sorted by start")
		}
	}
	if evs[0].Worker != 0 || evs[1].Worker != 1 {
		t.Fatal("worker ids not preserved")
	}
}

func TestSpan(t *testing.T) {
	r := sampleRecorder()
	if got := r.Span(); got != 150 {
		t.Fatalf("span = %d, want 150", got)
	}
	if NewRecorder(1).Span() != 0 {
		t.Fatal("empty recorder should have zero span")
	}
}

func TestKernelSpans(t *testing.T) {
	r := sampleRecorder()
	ks := r.KernelSpans()
	if len(ks) != 3 {
		t.Fatalf("%d kernels, want 3", len(ks))
	}
	if ks[0].Kernel != "SpMM" {
		t.Fatalf("first kernel %s, want SpMM (earliest)", ks[0].Kernel)
	}
	if ks[0].First != 0 || ks[0].Last != 100 || ks[0].Tasks != 2 || ks[0].Busy != 180 {
		t.Fatalf("SpMM span %+v", ks[0])
	}
}

func TestPipelineOverlap(t *testing.T) {
	// Barrier-separated kernels: zero overlap.
	sep := NewRecorder(1)
	sep.Record(0, Event{Kernel: "A", Start: 0, End: 100})
	sep.Record(0, Event{Kernel: "B", Start: 100, End: 200})
	if ov := sep.PipelineOverlap(); ov != 0 {
		t.Fatalf("separated overlap = %v, want 0", ov)
	}
	// Fully overlapped kernels.
	ovr := NewRecorder(2)
	ovr.Record(0, Event{Kernel: "A", Start: 0, End: 100})
	ovr.Record(1, Event{Kernel: "B", Start: 0, End: 100})
	if ov := ovr.PipelineOverlap(); ov != 1 {
		t.Fatalf("full overlap = %v, want 1", ov)
	}
	// A single kernel has no pairwise overlap by definition.
	one := NewRecorder(1)
	one.Record(0, Event{Kernel: "A", Start: 0, End: 50})
	if ov := one.PipelineOverlap(); ov != 0 {
		t.Fatalf("single-kernel overlap = %v, want 0", ov)
	}
}

func TestWriteTSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleRecorder().WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d lines, want header + 4", len(lines))
	}
	if !strings.HasPrefix(lines[0], "worker\tkernel") {
		t.Fatalf("bad header: %s", lines[0])
	}
}

func TestRenderASCII(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleRecorder().RenderASCII(&buf, 40); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "w00 |") || !strings.Contains(out, "w01 |") {
		t.Fatalf("missing worker rows:\n%s", out)
	}
	if !strings.Contains(out, "= SpMM") {
		t.Fatalf("missing legend:\n%s", out)
	}
	// Empty trace must not panic.
	var empty bytes.Buffer
	if err := NewRecorder(1).RenderASCII(&empty, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "empty") {
		t.Fatal("empty trace should say so")
	}
	// A recording that is not empty cannot be drawn in fewer than one
	// column: that is a caller error, not an empty trace.
	for _, cols := range []int{0, -1} {
		var b bytes.Buffer
		if err := sampleRecorder().RenderASCII(&b, cols); err == nil || b.Len() != 0 {
			t.Errorf("cols %d: err %v, rendered %q; want an error and no output", cols, err, b.String())
		}
	}
}
