package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// Every workload, in its smoke-test size, sets up, measures, verifies its
// outputs with no failed operation, and its last-line metrics are exactly the
// ones BENCHMARK.json lists, with the listed units and bounds — untraced and
// traced.
func TestQuickPassOverAllWorkloads(t *testing.T) {
	spec := readBenchmarkJSON(t)
	p := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(p)
	e := env{seed: 1, p: p, quick: true, seconds: 1}
	all := workloads()
	if len(all) != len(spec.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json lists %d", len(all), len(spec.Workloads))
	}
	for i, w := range all {
		if w.name != spec.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, w.name, spec.Workloads[i].Name)
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, e, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", w.name, traced, err)
			}
			line := res.driverLine()
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s (traced=%v): correct=%v attempted=%d failed=%d problems=%v guards=%+v",
					w.name, traced, line.Correct, line.Attempted, line.Failed, res.Problems, res.Guards)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
					for _, got := range res.Layers {
						if got.Name == m.Name && got.Better != m.Better {
							t.Errorf("%s: %s is better %q, BENCHMARK.json says %q", w.name, m.Name, got.Better, m.Better)
						}
					}
				}
				for _, tb := range res.LayerTable {
					if tb.SumMS <= 0 || tb.EndToEndMS <= 0 {
						t.Errorf("%s: empty layer table %q", w.name, tb.Title)
					}
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
					for _, got := range res.EndToEnd {
						if got.Name == m.Name && (got.Bound != m.Bound || got.Better != m.Better) {
							t.Errorf("%s: %s has bound %v better %q, BENCHMARK.json says %v %q", w.name, m.Name, got.Bound, got.Better, m.Bound, m.Better)
						}
					}
				}
			}
			var got, listed []string
			for name, m := range line.Metrics {
				got = append(got, name)
				if want[name] != m.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.name, name, m.Unit, want[name])
				}
				if m.Value == 0 && !traced {
					t.Errorf("%s: end-to-end metric %s is 0", w.name, name)
				}
			}
			for name := range want {
				listed = append(listed, name)
			}
			sort.Strings(got)
			sort.Strings(listed)
			if len(got) != len(listed) {
				t.Errorf("%s (traced=%v): last line has %v, BENCHMARK.json lists %v", w.name, traced, got, listed)
			}
		}
	}
}

// BENCHMARK.json lists the per-layer metrics in the program's order.
func TestPerLayerListsAgree(t *testing.T) {
	spec := readBenchmarkJSON(t)
	if len(spec.PerLayer) != len(driverPerLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(spec.PerLayer), len(driverPerLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != driverPerLayer[i] {
			t.Errorf("per-layer metric %d is %q in BENCHMARK.json, %q in the program", i, m.Name, driverPerLayer[i])
		}
	}
}
