// Package sched provides the scheduling substrate shared by the runtime
// backends: a Chase–Lev work-stealing deque, dependency counters, and a
// small worker-pool harness with pluggable local-queue discipline (LIFO for
// the OpenMP/DeepSparse-style depth-first bias, FIFO for the HPX-style
// breadth-first behavior the paper observes in execution flow graphs).
package sched

import (
	"sync/atomic"
)

// Deque is a lock-free Chase–Lev work-stealing deque of task ids. The owner
// worker pushes and pops at the bottom; thieves steal from the top. The
// implementation follows Chase & Lev (SPAA 2005) with the sequentially
// consistent atomics Go provides.
type Deque struct {
	top    atomic.Int64
	bottom atomic.Int64
	ring   atomic.Pointer[ring]
}

type ring struct {
	mask  int64
	slots []atomic.Int32
}

func newRing(capacity int64) *ring {
	return &ring{mask: capacity - 1, slots: make([]atomic.Int32, capacity)}
}

func (r *ring) get(i int64) int32    { return r.slots[i&r.mask].Load() }
func (r *ring) put(i int64, v int32) { r.slots[i&r.mask].Store(v) }

// grow doubles the ring, copying the live window.
//
//sparselint:coldcall amortized capacity doubling: runs O(log n) times over a deque's lifetime, behind Push's overflow check
func (r *ring) grow(t, b int64) *ring {
	nr := newRing((r.mask + 1) * 2)
	for i := t; i < b; i++ {
		nr.put(i, r.get(i))
	}
	return nr
}

// NewDeque returns an empty deque with a small initial capacity.
func NewDeque() *Deque {
	d := &Deque{}
	d.ring.Store(newRing(64))
	return d
}

// Push adds v at the bottom. Only the owner goroutine may call Push.
//
//sparselint:hotpath
func (d *Deque) Push(v int32) {
	b := d.bottom.Load()
	t := d.top.Load()
	r := d.ring.Load()
	if b-t > r.mask {
		r = r.grow(t, b)
		d.ring.Store(r)
	}
	r.put(b, v)
	d.bottom.Store(b + 1)
}

// Pop removes and returns the bottom element. Only the owner may call Pop.
//
//sparselint:hotpath
func (d *Deque) Pop() (int32, bool) {
	b := d.bottom.Load() - 1
	r := d.ring.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: restore bottom.
		d.bottom.Store(t)
		return 0, false
	}
	v := r.get(b)
	if t == b {
		// Last element: race with thieves for it.
		ok := d.top.CompareAndSwap(t, t+1)
		d.bottom.Store(t + 1)
		if !ok {
			return 0, false
		}
		return v, true
	}
	return v, true
}

// Steal removes and returns the top element. Any goroutine may call Steal.
//
//sparselint:hotpath
func (d *Deque) Steal() (int32, bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return 0, false
	}
	r := d.ring.Load()
	v := r.get(t)
	if !d.top.CompareAndSwap(t, t+1) {
		return 0, false // lost the race; caller may retry
	}
	return v, true
}

// Reset empties the deque, keeping any grown ring so refills don't
// reallocate. Only safe when no other goroutine is using the deque (i.e.
// between graph runs).
func (d *Deque) Reset() {
	d.top.Store(0)
	d.bottom.Store(0)
}

// Size returns a linearizable-enough estimate of the current length.
func (d *Deque) Size() int {
	b := d.bottom.Load()
	t := d.top.Load()
	if b < t {
		return 0
	}
	return int(b - t)
}
