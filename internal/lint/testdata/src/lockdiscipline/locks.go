// Package locks exercises sparselint/lockdiscipline: balanced release on
// every path, no blocking while held. Copies of sync primitives are go vet's.
package locks

import (
	"sync"
	"time"
)

type guarded struct {
	mu sync.Mutex
	ch chan int
	n  int
}

func (g *guarded) missingUnlock(cond bool) {
	g.mu.Lock() // want `locked here but not released on every path`
	if cond {
		g.n++
	}
}

func (g *guarded) returnWhileHeld(cond bool) int {
	g.mu.Lock()
	if cond {
		return g.n // want `return while holding g.mu`
	}
	g.mu.Unlock()
	return 0
}

func (g *guarded) blockWhileHeld() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ch <- 1                    // want `channel send while holding g.mu`
	time.Sleep(time.Millisecond) // want `blocking call while holding g.mu`
	<-g.ch                       // want `channel receive while holding g.mu`
}

func (g *guarded) selectNoDefault() {
	g.mu.Lock()
	select { // want `select with no default may block while holding g.mu`
	case v := <-g.ch:
		g.n = v
	}
	g.mu.Unlock()
}

// clean is the sanctioned shape: defer covers every return, and the select
// is non-blocking by construction.
func (g *guarded) clean() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case v := <-g.ch:
		return v
	default:
	}
	return g.n
}

func (g *guarded) suppressed() {
	g.mu.Lock()
	//lint:ignore sparselint/lockdiscipline fixture: channel is buffered with capacity reserved at Lock time
	g.ch <- 1
	g.mu.Unlock()
}

// ------------------------------------------------------------------ RWMutex

type rwGuarded struct {
	mu sync.RWMutex
	n  int
}

// readClean is the sanctioned read path: defer covers every return.
func (g *rwGuarded) readClean() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.n
}

func (g *rwGuarded) readLeak(cond bool) int {
	g.mu.RLock()
	if cond {
		return g.n // want `return while holding g.mu:r`
	}
	g.mu.RUnlock()
	return 0
}

func (g *rwGuarded) upgradeDeadlock() {
	g.mu.RLock()
	g.mu.Lock() // want `upgrading g.mu from RLock to Lock self-deadlocks`
	g.n++
	g.mu.Unlock()
	g.mu.RUnlock()
}

// upgradeClean is the legal upgrade: release the read lock, take the write
// lock, revalidate.
func (g *rwGuarded) upgradeClean(want int) {
	g.mu.RLock()
	seen := g.n
	g.mu.RUnlock()
	g.mu.Lock()
	if g.n == seen && seen == want {
		g.n++
	}
	g.mu.Unlock()
}

func (g *rwGuarded) recursiveRead() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.mu.RLock() // want `recursive RLock on g.mu`
	defer g.mu.RUnlock()
	return g.n
}

func (g *rwGuarded) readUnderWrite() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.mu.RLock() // want `RLock on g.mu while its write lock is held`
	defer g.mu.RUnlock()
	return g.n
}

func (g *rwGuarded) relock() {
	g.mu.Lock()
	g.mu.Lock() // want `already locked on this path`
	g.n++
	g.mu.Unlock()
}

// ------------------------------------------------------------------- loops

// breakWhileHeld leaves the range loop through a break with the lock held:
// the send after the loop blocks under it, and the function falls off its
// end still holding it.
func (g *guarded) breakWhileHeld(items []int) {
	for _, it := range items {
		g.mu.Lock() // want `locked here but not released on every path`
		if it < 0 {
			break
		}
		g.mu.Unlock()
	}
	g.ch <- 1 // want `channel send while holding g.mu`
}

// lockInLoop never unlocks: the next iteration re-locks what it holds.
func (g *guarded) lockInLoop(n int) {
	for i := 0; i < n; i++ {
		g.mu.Lock() // want `already locked on this path` `locked here but not released on every path`
		g.n += i
	}
}

// skipUnderLock takes the lock per iteration and releases it on both the
// early-continue path and the fall-through path.
func (g *guarded) skipUnderLock(items []int) {
	for _, it := range items {
		g.mu.Lock()
		if it == 0 {
			g.mu.Unlock()
			continue
		}
		g.n += it
		g.mu.Unlock()
	}
}

type gate struct {
	mu   sync.Mutex
	cond *sync.Cond
	open bool
}

// waitOpen is the condition-variable wait: Cond.Wait releases the mutex
// while parked, and the loop exits holding it for the Unlock below.
func (g *gate) waitOpen() {
	g.mu.Lock()
	for !g.open {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// labeledBreak leaves both loops from the inner one, after the Unlock.
func (g *guarded) labeledBreak(rows [][]int) {
outer:
	for _, row := range rows {
		for _, v := range row {
			g.mu.Lock()
			g.n += v
			g.mu.Unlock()
			if v < 0 {
				break outer
			}
		}
	}
	g.ch <- g.n
}
