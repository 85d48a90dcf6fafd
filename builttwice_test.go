package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"reflect"
	"testing"

	"sparsetask/internal/graph"
	"sparsetask/internal/matgen"
	"sparsetask/internal/precond"
	"sparsetask/internal/solver"
	"sparsetask/internal/sparse"
)

// TestBuiltTwice holds every structure the stack builds from a matrix to be
// a pure function of its input: built again in the same process, a matrix,
// its tilings, its factor, the factor's substitution layout and every
// solver's task graph have the same bits. A map range, a wall-clock branch or
// a draw from the process-wide random source in a builder makes two builds
// differ; map order is randomised per range, so each row is built several
// times.
func TestBuiltTwice(t *testing.T) {
	const builds = 4
	type row struct {
		name  string
		build func() (any, error)
	}
	var rows []row
	for _, s := range matgen.Suite() {
		rows = append(rows, row{"matgen/" + s.Name, func() (any, error) { return s.Build(matgen.Tiny, 1), nil }})
	}
	rows = append(rows,
		row{"matgen/BlockCI", func() (any, error) { return matgen.BlockCI(3000, 24, 6, 5), nil }},
		row{"matgen/FEM3D", func() (any, error) { return matgen.FEM3D(3, 3, 3, 2, 7, 42), nil }},
		row{"matgen/SPDLaplacian", func() (any, error) { return matgen.SPDLaplacian(2000, 9), nil }},
	)

	// The conversions, the factorization and the analyses start from the
	// same input each time: one FEM matrix, tiled in blocks of 96 rows.
	const block = 96
	spec, err := matgen.SpecByName("inline1")
	if err != nil {
		t.Fatal(err)
	}
	coo := spec.Build(matgen.Tiny, 1)
	coo.Compact()
	csr := coo.ToCSR()
	ic, err := precond.Factorize(csr)
	if err != nil || ic.Kind != precond.KindIC0 {
		t.Fatalf("factorize: %v (kind %v)", err, ic.Kind)
	}
	sym, err := coo.ToSymCSB(block)
	if err != nil {
		t.Fatal(err)
	}
	csb := coo.ToCSB(block)
	rows = append(rows,
		row{"sparse/ToCSB", func() (any, error) { return coo.ToCSB(block), nil }},
		row{"sparse/ToSymCSB", func() (any, error) { return coo.ToSymCSB(block) }},
		row{"sparse/NewBlockTri", func() (any, error) { return sparse.NewBlockTri(ic.L, block, false) }},
		row{"precond/Factorize", func() (any, error) { return precond.Factorize(csr) }},
		row{"precond/AnalyzeLower", func() (any, error) { return precond.AnalyzeLower(ic.L, block), nil }},
		row{"precond/AnalyzeUpper", func() (any, error) { return precond.AnalyzeUpper(ic.U, block), nil }},
	)

	// Each solver's task graph over one matrix: graph.Build's output
	// (tasks, dependencies, roots) and the fused graph the solver runs.
	type grapher interface{ Graph() *graph.TDG }
	graphs := func(s grapher, err error) (any, error) {
		if err != nil {
			return nil, err
		}
		g := s.Graph()
		return [2]tdgShape{shapeOf(g.Source()), shapeOf(g)}, nil
	}
	rows = append(rows,
		row{"graph/Lanczos", func() (any, error) { return graphs(solver.NewLanczos(csb, 12)) }},
		row{"graph/Lanczos-sym", func() (any, error) { return graphs(solver.NewLanczos(sym, 12)) }},
		row{"graph/LOBPCG", func() (any, error) { return graphs(solver.NewLOBPCG(csb, 4)) }},
		row{"graph/CG", func() (any, error) { return graphs(solver.NewCG(csb)) }},
		row{"graph/PCG", func() (any, error) { return graphs(solver.NewPCG(csb, ic)) }},
	)

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var first [sha256.Size]byte
			for b := 1; b <= builds; b++ {
				v, err := r.build()
				if err != nil {
					t.Fatalf("build %d: %v", b, err)
				}
				if got := digest(v); b == 1 {
					first = got
				} else if got != first {
					t.Fatalf("build %d differs from build 1", b)
				}
			}
		})
	}
}

// TestSPDLaplacianSeedMatters: the seed reaches the values, so two seeds
// give two matrices.
func TestSPDLaplacianSeedMatters(t *testing.T) {
	if digest(matgen.SPDLaplacian(2000, 9)) == digest(matgen.SPDLaplacian(2000, 10)) {
		t.Fatal("different seeds produced identical matrices")
	}
}

// tdgShape is what a TDG says about the schedule: its tasks (kinds, calls,
// partitions, dependencies, successors, flops, regions, fused parts), its
// roots and its edge count. The program and the matrices are its inputs.
type tdgShape struct {
	Tasks    []graph.Task
	Roots    []int32
	NumEdges int
}

func shapeOf(g *graph.TDG) tdgShape { return tdgShape{g.Tasks, g.Roots, g.NumEdges} }

// digest hashes every bit of v reachable through pointers, slices, arrays
// and struct fields: floats by their bits, slices with their lengths, nil
// apart from empty. A function is hashed by whether it is nil; a map cannot
// be hashed in a fixed order, so it panics.
func digest(v any) [sha256.Size]byte {
	h := sha256.New()
	hashValue(h, reflect.ValueOf(v))
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

func hashValue(h hash.Hash, v reflect.Value) {
	word := func(x uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, x)) }
	switch v.Kind() {
	case reflect.Invalid:
		word(0)
	case reflect.Pointer, reflect.Interface, reflect.Func:
		if v.IsNil() {
			word(0)
			return
		}
		word(1)
		if v.Kind() != reflect.Func {
			hashValue(h, v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(h, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			word(0)
			return
		}
		word(uint64(v.Len()) + 1)
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.Bool:
		if v.Bool() {
			word(1)
		} else {
			word(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		word(v.Uint())
	case reflect.Float32, reflect.Float64:
		word(math.Float64bits(v.Float()))
	case reflect.String:
		word(uint64(v.Len()))
		h.Write([]byte(v.String()))
	default:
		panic(fmt.Sprintf("digest: cannot hash a %s in a fixed order", v.Type()))
	}
}
