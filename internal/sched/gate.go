package sched

import (
	"sync"
	"sync/atomic"
)

// Gate is an event count: the parking half of spin-then-park. A waiter
// announces itself (prepare), re-checks the condition it is waiting for, and
// only then sleeps (wait) until the next Notify; a notifier that finds nobody
// announced pays one atomic load and touches no lock. Because the waiter
// publishes itself before its re-check and the notifier publishes its change
// before looking for waiters, one of the two always sees the other: no
// wake-up is lost.
//
//	key := g.prepare()
//	if conditionHolds() {
//		g.cancel()
//	} else {
//		g.wait(key)
//	}
//
// Await packages that sequence behind a bounded spin. The zero value is ready
// to use. The executor's idle workers park on one; so do the members of a
// Team between and at the end of rounds.
type Gate struct {
	waiters atomic.Int32
	epoch   atomic.Uint64
	mu      sync.Mutex
	cond    sync.Cond // cond.L is set under mu on first use
}

// prepare announces a waiter and returns the key to pass to wait.
func (g *Gate) prepare() uint64 {
	g.waiters.Add(1)
	return g.epoch.Load()
}

// cancel withdraws a prepare whose re-check found the condition already true.
func (g *Gate) cancel() { g.waiters.Add(-1) }

// wait sleeps until a Notify that came after the matching prepare.
func (g *Gate) wait(key uint64) {
	g.mu.Lock()
	g.cond.L = &g.mu
	for g.epoch.Load() == key {
		g.cond.Wait()
	}
	g.mu.Unlock()
	g.waiters.Add(-1)
}

// Await returns once cond holds: a bounded spin between re-checks, then
// prepare / re-check / wait rounds. cond must become true through a change
// that is followed by Notify — which is also how cancellation reaches a
// waiter: as a state change (a halted run, a closed team), not a context.
//
// Await's callers wait for a peer that is by construction about to act — the
// other members of a Team reaching the end of a round, its caller starting
// the next — so its spin budget is awaitRounds, sized to outlast a park's
// wake-up rather than an average wait. With a shorter one a single slow
// hand-off tips both sides into parking: each is woken too late to catch the
// other still spinning, and every hand-off from then on costs two wake-ups.
func (g *Gate) Await(cond func() bool) {
	for i := 0; !cond(); i++ {
		if i < awaitRounds {
			spinRound(i)
			continue
		}
		key := g.prepare()
		if cond() {
			g.cancel()
			return
		}
		g.wait(key)
		i = -1
	}
}

// Notify wakes every waiter announced so far and reports whether there was
// one. Call it after publishing the change waiters are looking for.
//
//sparselint:hotpath
func (g *Gate) Notify() bool {
	if g.waiters.Load() != 0 {
		g.wake()
		return true
	}
	return false
}

// wake is Notify's slow half: somebody is, or is about to be, asleep.
//
//sparselint:coldcall runs only when a waiter has announced itself; the lock and broadcast are the cost of a real wake-up
func (g *Gate) wake() {
	g.mu.Lock()
	g.cond.L = &g.mu
	g.epoch.Add(1)
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Spin budgets, in rounds of a busy loop of about 60 ns. spinRounds (some
// 15 µs) is what a worker without work spends looking again before it parks:
// what a fine-grained run waits for — a dependency resolving, a reduction
// finishing — is usually a few hundred nanoseconds away. awaitRounds (some
// 200 µs) is Await's: see there. A park plus its wake-up costs 100 µs and
// more (measured on the 2-vCPU reference box: median 150 µs from Notify to
// the waiter running), so neither budget is generous.
//
// The loop never yields the processor: a runtime.Gosched here sends the
// waiter through the global run queue, and measured on the BSP barrier that
// turns a 0.3 µs hand-off into 3–30 µs. The price is paid when workers
// outnumber processors: a waiter can then hold a processor its peer needs for
// one budget before parking hands it over.
const (
	spinRounds  = 256
	awaitRounds = 3500
)

// Spin performs round i of a bounded busy-wait and reports whether the budget
// allows another round; callers re-check their condition between rounds and
// park (Gate) once Spin returns false.
//
//sparselint:hotpath
func Spin(i int) bool {
	if i >= spinRounds {
		return false
	}
	spinRound(i)
	return true
}

// spinRound is one round of busy-waiting: a chain of dependent multiplies. It
// occupies one execution port a fraction of the time, which leaves a sibling
// hyperthread its share of the core, and it touches no memory, so it costs
// the same under the race detector. Kept out of line, and returning the
// chain's value, so the compiler cannot discard the work.
//
//go:noinline
//sparselint:hotpath
func spinRound(i int) uint64 {
	x := uint64(i) | 1
	for k := 0; k < 64; k++ {
		x = x*0x9E3779B97F4A7C15 + 1
	}
	return x
}

// Team is a caller plus n-1 persistent helper goroutines that work through
// rounds together: Round runs body(0) on the caller and body(w) on every
// helper, and returns when all of them have. Between rounds the helpers wait
// on a round word — a bounded spin, then a park — so back-to-back rounds
// (the supersteps of a BSP run, the iterations of a solver) cost a store on
// the way in and a counter on the way out, not a goroutine fork and join.
// With n == 1 there are no helpers and Round is body(0).
//
// What the caller writes before Round is visible to every body; what the
// bodies write is visible to the caller after it. body must not panic on a
// helper (recover inside it). Rounds must not overlap; Close, once, after the
// last one.
type Team struct {
	n      int
	body   func(w int)
	round  atomic.Uint64 // bumped by Round to release the helpers
	inside atomic.Int32  // helpers that have not finished the current round
	closed atomic.Bool
	gate   Gate
	wg     sync.WaitGroup
}

// NewTeam starts the n-1 helpers; they idle until the first Round.
func NewTeam(n int, body func(w int)) *Team {
	t := &Team{n: n, body: body}
	t.wg.Add(n - 1)
	for w := 1; w < n; w++ {
		go t.helper(w)
	}
	return t
}

// Round executes one round and returns once every member has finished it.
//
//sparselint:hotpath
func (t *Team) Round() {
	if t.n == 1 {
		t.body(0)
		return
	}
	t.inside.Store(int32(t.n - 1))
	t.round.Add(1)
	t.gate.Notify()
	t.body(0)
	t.gate.Await(t.allOut)
}

func (t *Team) allOut() bool { return t.inside.Load() == 0 }

// Close dismisses the helpers and returns once they have exited.
func (t *Team) Close() {
	if t.closed.Swap(true) {
		return
	}
	t.gate.Notify()
	t.wg.Wait()
}

func (t *Team) helper(w int) {
	defer t.wg.Done()
	var seen uint64
	for {
		t.gate.Await(func() bool { return t.closed.Load() || t.round.Load() != seen })
		if t.closed.Load() {
			return
		}
		seen = t.round.Load()
		t.body(w)
		if t.inside.Add(-1) == 0 {
			t.gate.Notify() // Round may be parked waiting for the last member
		}
	}
}
