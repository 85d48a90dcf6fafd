package graph

// Task fusion: the per-partition tasks of consecutive calls (XY, AXPBY, SCALE,
// COPY, DSCALE and the partial producers DOTp, XTYp, CDOTp, CAXPBY) that can
// never usefully run apart are merged into one task. Each partition has one
// open group; a task joins it when every dependency of the task is a member
// of the group or already precedes the group — is an ancestor of it in the
// fused graph built so far. Otherwise the task opens a new group.
//
// Why that is safe:
//
//   - No cycle can form. A group's dependencies all precede its head, fused
//     ids follow head order, so every fused edge points backwards.
//   - No task starts later than its inputs allow: whatever a joining task
//     waits for is complete before the group head may start.
//   - Every original edge survives, inside a group (members run in id order)
//     or between groups, so the fused graph's order contains the original's.
//     Kernels on one partition keep their order and every reduction keeps its
//     operand order: results are bit-identical.
//   - Fusing a fused graph changes nothing: the ancestor relation the rule
//     consults is the fused graph's own.
//
// What is given up is the freedom to run two independent kernels of one
// partition on two workers at once — parallelism no solver here has, since
// every call spans all partitions.
//
// A fused task carries its constituents in Parts; executors run them
// back-to-back, and the simulator charges one dispatch overhead for the
// whole group.

// Part is one constituent of a fused task.
type Part struct {
	Kind  TaskKind
	Call  int32
	P, Q  int32
	First bool
}

// fusable reports whether a task kind is a per-partition kernel that reads
// and writes only its own partition (plus small operands and its own partial
// slot), and so may join its partition's group.
func fusable(k TaskKind) bool {
	switch k {
	case TGemm, TAxpby, TScaleInv, TCopy, TDiagScale,
		TDotPart, TGemmTPart, TColDotPart, TColAxpby:
		return true
	}
	return false
}

// Source returns the graph Build produced: g itself, or the graph a fused g
// was derived from.
func (g *TDG) Source() *TDG {
	if g.Unfused != nil {
		return g.Unfused
	}
	return g
}

// Fuse returns a new TDG with partition-local groups fused (see the package
// comment above for the rule). The input graph is not modified; the result's
// Unfused field points at the Build output it descends from.
func Fuse(g *TDG) *TDG {
	n := len(g.Tasks)
	out := &TDG{Prog: g.Prog, Opt: g.Opt, Mats: g.Mats, Syms: g.Syms, Unfused: g.Source()}
	f := newFuser(g)
	open := make([]int32, g.Prog.NP) // partition -> fused id of its open group
	for p := range open {
		open[p] = -1
	}
	for i := 0; i < n; i++ {
		t := &g.Tasks[i]
		if fusable(t.Kind) {
			if k := open[t.P]; k >= 0 && f.joins(t, k) {
				nt := &out.Tasks[k]
				if f.tail[k] == f.head[k] {
					// First join: until now the task shared its head's slices.
					nt.Parts = append(make([]Part, 0, 8), partsOf(&g.Tasks[f.head[k]])...)
					nt.Reads = append(make([]Ref, 0, 2*len(nt.Reads)+len(t.Reads)), nt.Reads...)
					nt.Writes = append(make([]Ref, 0, 2*len(nt.Writes)+len(t.Writes)), nt.Writes...)
				}
				nt.Parts = append(nt.Parts, partsOf(t)...)
				nt.Flops += t.Flops
				nt.Reads = mergeRefs(nt.Reads, t.Reads)
				nt.Writes = mergeRefs(nt.Writes, t.Writes)
				f.append(int32(i), k)
				continue
			}
		}
		k := f.add(int32(i))
		nt := *t
		nt.ID = k
		nt.Deps, nt.Succs = nil, nil
		out.Tasks = append(out.Tasks, nt)
		if fusable(t.Kind) {
			open[t.P] = k
		}
	}

	// Dependencies: the external dependencies of every member, deduplicated.
	stamp := make([]int32, len(out.Tasks))
	for k := range out.Tasks {
		nt := &out.Tasks[k]
		for i := f.head[k]; i >= 0; i = f.link[i] {
			for _, d := range g.Tasks[i].Deps {
				u := f.node[d]
				if u == int32(k) || stamp[u] == int32(k)+1 {
					continue
				}
				stamp[u] = int32(k) + 1
				nt.Deps = append(nt.Deps, u)
			}
		}
		if len(nt.Deps) == 0 {
			out.Roots = append(out.Roots, nt.ID)
		}
		for _, d := range nt.Deps {
			out.Tasks[d].Succs = append(out.Tasks[d].Succs, nt.ID)
			out.NumEdges++
		}
	}
	return out
}

// partsOf lists a task's constituents: its Parts when it is already fused,
// itself otherwise.
func partsOf(t *Task) []Part {
	if len(t.Parts) > 0 {
		return t.Parts
	}
	return []Part{{t.Kind, t.Call, t.P, t.Q, t.First}}
}

// fuser is the state of one Fuse pass: which fused task every original task
// went to, and an exact ancestor oracle over the fused graph built so far.
//
// The oracle rests on two facts. A group's ancestors are fixed when its head
// is created — later members only depend on what already precedes it — so
// reachability can be read off the heads' dependencies alone. And in a solver
// iteration almost every cross-partition path runs through a task with no
// partition of its own (a global reduction or small step): those few tasks
// are landmarks, each fused task keeps the set of landmarks above it and the
// set it reaches without crossing another, and "x precedes k" is one bitset
// intersection. Only a path that crosses no landmark needs a search, and that
// search stays inside one call's neighbourhood.
type fuser struct {
	g    *TDG
	node []int32 // original task -> fused task
	link []int32 // original task -> next member of its fused task, or -1
	head []int32 // fused task -> its first member
	tail []int32 // fused task -> its last member

	words int      // bitset words per fused task
	lm    []int32  // fused task -> landmark ordinal, or -1
	nlm   int32    // landmarks created so far
	anc   []uint64 // fused task -> landmarks that precede it (itself included)
	nxt   []uint64 // fused task -> landmarks it reaches without crossing another

	seen  []int32 // search stamps per fused task
	token int32
	stack []int32
}

func newFuser(g *TDG) *fuser {
	n := len(g.Tasks)
	landmarks := 0
	for i := range g.Tasks {
		if g.Tasks[i].P < 0 {
			landmarks++
		}
	}
	return &fuser{
		g:     g,
		node:  make([]int32, n),
		link:  make([]int32, n),
		words: (landmarks + 63) / 64,
		seen:  make([]int32, n),
	}
}

// add creates the fused task headed by original task i and returns its id.
func (f *fuser) add(i int32) int32 {
	k := int32(len(f.head))
	f.node[i], f.link[i] = k, -1
	f.head = append(f.head, i)
	f.tail = append(f.tail, i)
	f.lm = append(f.lm, -1)
	w := f.words
	for j := 0; j < w; j++ {
		f.anc = append(f.anc, 0)
		f.nxt = append(f.nxt, 0)
	}
	t := &f.g.Tasks[i]
	row := f.anc[int(k)*w:]
	for _, d := range t.Deps {
		for j, v := range f.anc[int(f.node[d])*w : int(f.node[d]+1)*w] {
			row[j] |= v
		}
	}
	if t.P >= 0 {
		return k
	}
	// A landmark: record it above itself, and below everything that reaches
	// it without crossing another landmark.
	li := f.nlm
	f.nlm++
	f.lm[k] = li
	row[li>>6] |= 1 << uint(li&63)
	f.walkUp(k, -1, func(u int32) bool {
		f.nxt[int(u)*w+int(li>>6)] |= 1 << uint(li&63)
		return false
	})
	return k
}

// append records original task i as the newest member of fused task k.
func (f *fuser) append(i, k int32) {
	f.node[i], f.link[i] = k, -1
	f.link[f.tail[k]] = i
	f.tail[k] = i
}

// joins reports whether t may join group k: every dependency is a member of
// the group or precedes it.
func (f *fuser) joins(t *Task, k int32) bool {
	for _, d := range t.Deps {
		x := f.node[d]
		if x == k {
			continue
		}
		if x > k || !f.precedes(x, k) {
			return false
		}
	}
	return true
}

// precedes reports whether fused task x (x < k) is an ancestor of group k.
func (f *fuser) precedes(x, k int32) bool {
	w := f.words
	above := f.anc[int(k)*w : int(k+1)*w]
	if li := f.lm[x]; li >= 0 {
		return above[li>>6]&(1<<uint(li&63)) != 0
	}
	for j, v := range f.nxt[int(x)*w : int(x+1)*w] {
		if above[j]&v != 0 {
			return true
		}
	}
	return f.walkUp(k, x, func(u int32) bool { return u == x })
}

// walkUp visits the ancestors of fused task k reachable without crossing a
// landmark, skipping ids below floor (a path to x only passes ids above x).
// It stops, and returns true, as soon as visit does.
func (f *fuser) walkUp(k, floor int32, visit func(int32) bool) bool {
	f.token++
	f.stack = append(f.stack[:0], k)
	for len(f.stack) > 0 {
		v := f.stack[len(f.stack)-1]
		f.stack = f.stack[:len(f.stack)-1]
		for _, d := range f.g.Tasks[f.head[v]].Deps {
			u := f.node[d]
			if u < floor || f.lm[u] >= 0 || f.seen[u] == f.token {
				continue
			}
			f.seen[u] = f.token
			if visit(u) {
				return true
			}
			f.stack = append(f.stack, u)
		}
	}
	return false
}

// mergeRefs adds b to a, a union by region that keeps the larger footprint.
func mergeRefs(a, b []Ref) []Ref {
	for _, r := range b {
		found := false
		for i := range a {
			if a[i].Region == r.Region {
				if r.Bytes > a[i].Bytes {
					a[i].Bytes = r.Bytes
				}
				found = true
				break
			}
		}
		if !found {
			a = append(a, r)
		}
	}
	return a
}
