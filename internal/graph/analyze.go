package graph

import (
	"fmt"
	"io"
	"strings"
)

// Stats summarizes a TDG: the numbers the paper quotes (task counts per
// iteration ranged 56 to 6.5M; critical path 5 for Lanczos and 29 for
// LOBPCG at the kernel level).
type Stats struct {
	Tasks        int
	Edges        int
	Roots        int
	CriticalPath int // longest path in tasks
	// MaxWidth is the largest antichain level size under ASAP leveling: an
	// upper bound proxy for exploitable parallelism.
	MaxWidth int
	// KernelCriticalPath is the critical path measured in distinct calls
	// (kernel granularity), matching how the paper counts 5 and 29.
	KernelCriticalPath int
}

// ComputeStats analyzes the graph in one topological pass. Tasks are already
// topologically ordered by construction (dependencies always point to lower
// ids).
func (g *TDG) ComputeStats() Stats {
	s := Stats{Tasks: len(g.Tasks), Edges: g.NumEdges, Roots: len(g.Roots)}
	depth := make([]int32, len(g.Tasks))
	kdepth := make([]int32, len(g.Tasks))
	var levelCount []int
	for i := range g.Tasks {
		t := &g.Tasks[i]
		var d, kd int32
		for _, dep := range t.Deps {
			if depth[dep] > d {
				d = depth[dep]
			}
			kdp := kdepth[dep]
			if g.Tasks[dep].Call == t.Call {
				// same kernel: no new kernel level
				if kdp > kd {
					kd = kdp
				}
			} else {
				if kdp+1 > kd {
					kd = kdp + 1
				}
			}
		}
		depth[i] = d + 1
		if len(t.Deps) == 0 {
			kdepth[i] = 1
		} else {
			if kd == 0 {
				kd = 1
			}
			kdepth[i] = kd
		}
		for int(depth[i]) >= len(levelCount) {
			levelCount = append(levelCount, 0)
		}
		levelCount[depth[i]]++
		if int(depth[i]) > s.CriticalPath {
			s.CriticalPath = int(depth[i])
		}
		if int(kdepth[i]) > s.KernelCriticalPath {
			s.KernelCriticalPath = int(kdepth[i])
		}
	}
	for _, c := range levelCount {
		if c > s.MaxWidth {
			s.MaxWidth = c
		}
	}
	return s
}

// Validate checks structural invariants: dependencies point strictly
// backwards (acyclicity by construction), Succs mirror Deps, and every
// non-root has at least one dependency.
func (g *TDG) Validate() error {
	for i := range g.Tasks {
		t := &g.Tasks[i]
		if t.ID != int32(i) {
			return fmt.Errorf("graph: task %d has ID %d", i, t.ID)
		}
		for _, d := range t.Deps {
			if d >= t.ID {
				return fmt.Errorf("graph: task %d depends on %d (not strictly earlier)", t.ID, d)
			}
			found := false
			for _, s := range g.Tasks[d].Succs {
				if s == t.ID {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("graph: edge %d->%d missing from Succs", d, t.ID)
			}
		}
	}
	roots := 0
	for i := range g.Tasks {
		if len(g.Tasks[i].Deps) == 0 {
			roots++
		}
	}
	if roots != len(g.Roots) {
		return fmt.Errorf("graph: %d roots recorded, %d found", len(g.Roots), roots)
	}
	return nil
}

// WriteDOT emits the TDG in Graphviz format, one node per task labeled with
// its kernel and partition, matching the style of the paper's Fig. 3.
func (g *TDG) WriteDOT(w io.Writer, title string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n", title)
	for i := range g.Tasks {
		t := &g.Tasks[i]
		label := fmt.Sprintf("%s", t.Kind)
		switch {
		case t.Q >= 0:
			label = fmt.Sprintf("%s(%d,%d)", t.Kind, t.P, t.Q)
		case t.P >= 0:
			label = fmt.Sprintf("%s(%d)", t.Kind, t.P)
		}
		fmt.Fprintf(&b, "  t%d [label=%q];\n", t.ID, label)
	}
	for i := range g.Tasks {
		for _, d := range g.Tasks[i].Deps {
			fmt.Fprintf(&b, "  t%d -> t%d;\n", d, g.Tasks[i].ID)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
