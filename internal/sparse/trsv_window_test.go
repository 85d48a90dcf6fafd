//go:build linux && amd64

package sparse_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"

	"sparsetask/internal/sparse"
)

// guarded returns a slice of n elements of T that ends where a PROT_NONE
// page begins, so reading one element past its end faults.
func guarded[T any](t *testing.T, n int) []T {
	t.Helper()
	page := syscall.Getpagesize()
	size := int(unsafe.Sizeof(*new(T))) * n
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Error(err)
		}
	})
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[page-size])), n)
}

// The assembly passes of SolveSegN refuse a row whose entry window runs
// backwards, Ptr[k] > Ptr[k+1]: they would otherwise step through the
// entries from Ptr[k] upwards and never meet Ptr[k+1]. Here the last row's
// window starts at len(Col) and Col and Val end at a PROT_NONE page, so a
// pass that follows the window reads the guard page and faults; a pass that
// checks it panics with the kernel's out-of-range message. Every width runs,
// so each of the 8-, 4-, 2- and 1-wide passes is checked.
func TestSolveSegNRefusesBackwardsWindow(t *testing.T) {
	if !sparse.SIMD {
		t.Skip(noAsm)
	}
	const nc = 4
	tri := &sparse.BlockTri{
		Rows: 2, Block: 2, NB: 1,
		Row:  []int32{0, 1},
		Ptr:  []int64{nc, nc, 0}, // row 0: empty; row 1: [len(Col), 0)
		Col:  guarded[int32](t, nc),
		Val:  guarded[float64](t, nc),
		Diag: []float64{1, 1},
		Seg:  []int32{0, 2}, BlockSeg: []int32{0, 1},
		SegDeps: [][]int32{nil}, SegOrder: []int32{0},
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for _, n := range []int{1, 2, 3, 4, 8, 15} {
		x, b := make([]float64, 2*n), make([]float64, 2*n)
		if got := solvePanic(tri, x, b, n); got != "sparse: kernel index out of range" {
			t.Errorf("n=%d: SolveSegN over a backwards window: %s, want the kernel's out-of-range panic", n, got)
		}
	}
}

// solvePanic runs SolveSegN and describes how it panicked: the message of a
// string panic, or the runtime error (a fault is one) otherwise.
func solvePanic(tri *sparse.BlockTri, x, b []float64, n int) (got string) {
	defer func() {
		switch r := recover().(type) {
		case nil:
			got = "no panic"
		case string:
			got = r
		case runtime.Error:
			got = r.Error()
		default:
			got = fmt.Sprintf("panic %v", r)
		}
	}()
	tri.SolveSegN(x, b, n, 0)
	return "no panic"
}
