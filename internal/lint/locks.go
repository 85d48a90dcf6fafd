package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// lockDisciplineAnalyzer enforces mutex hygiene everywhere: every Lock/RLock
// must be matched by an Unlock (or defer Unlock) on every path out of the
// same function, and no blocking operation (blockingOp: channel
// send/receive, select with no default, time.Sleep, WaitGroup.Wait) may run
// while a lock is held.
// sync.Cond.Wait is allowed — it releases the mutex while parked — and a
// select with a default clause is non-blocking by construction (the server
// admission-queue pattern).
//
// The path rules are a client of the dataflow engine (cfg.go, dataflow.go):
// the state at a program point is the set of locks some path into it holds,
// so a lock carried around a loop's back edge, out through a break, or past
// the loop's exit is seen wherever it flows. Func literals are their own
// scopes: a closure must balance the locks it takes itself. Copies of sync
// primitives are go vet's copylocks check, which scripts/lint.sh runs.
func lockDisciplineAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "lockdiscipline",
		Doc:  "locks released on all paths, no blocking while held",
	}
	a.Run = func(pass *Pass) {
		for _, pkg := range pass.Prog.Pkgs {
			for _, fb := range funcBodies(pkg) {
				checkLocks(pass, pkg, fb)
			}
		}
	}
	return a
}

// checkLocks solves the held-lock flow of one body, then reports from the
// fixpoint: blocking operations, re-locks and returns on the replay, and
// locks still held where the function falls off its end from the Exit state
// (returns and panics clear the set, so only fall-off paths reach it held).
func checkLocks(pass *Pass, pkg *Package, fb funcBody) {
	lf := &lockFlow{pass: pass, info: pkg.Info}
	g := buildCFG(fb.Body)
	solved, ok := solveForward(g, lf, &lockState{held: map[string]token.Pos{}, deferred: map[string]token.Pos{}})
	if !ok {
		reportNoFixpoint(pass, fb)
		return
	}
	lf.report = true
	replayBlocks(g, lf, solved)
	if exit, ok := solved[g.Exit]; ok {
		// Each key has its own Lock position; the driver sorts findings.
		for key, pos := range exit.(*lockState).held {
			pass.Reportf(pos, "%s is locked here but not released on every path out of the function", key)
		}
	}
}

// lockState tracks the locks a path holds, keyed by lock expression (":r"
// marks a read lock) with the position of the Lock call. held locks need an
// explicit Unlock before every return; deferred locks are released at
// return by a `defer Unlock` but are still physically held, so blocking
// operations remain forbidden while they are set.
type lockState struct {
	held     map[string]token.Pos
	deferred map[string]token.Pos
}

func (st *lockState) clone() flowState {
	return &lockState{held: maps.Clone(st.held), deferred: maps.Clone(st.deferred)}
}

// mergeFrom is the union: a lock held on any path into a point is held
// there, at its earliest Lock position.
func (st *lockState) mergeFrom(other flowState) bool {
	o := other.(*lockState)
	changed := unionPos(st.held, o.held)
	return unionPos(st.deferred, o.deferred) || changed
}

func unionPos(dst, src map[string]token.Pos) bool {
	changed := false
	for k, p := range src {
		if q, ok := dst[k]; !ok || p < q {
			dst[k] = p
			changed = true
		}
	}
	return changed
}

// minKey names one lock of the given sets deterministically (the least
// key), or "" when they are all empty.
func minKey(sets ...map[string]token.Pos) string {
	least := ""
	for _, set := range sets {
		for k := range set {
			if least == "" || k < least {
				least = k
			}
		}
	}
	return least
}

// lockFlow is the flowTransfers half. Reporting is off while solving and on
// for the replay, so each node reports once, under its fixpoint state.
type lockFlow struct {
	pass   *Pass
	info   *types.Info
	report bool
}

func (lf *lockFlow) reportf(pos token.Pos, format string, args ...any) {
	if lf.report {
		lf.pass.Reportf(pos, format, args...)
	}
}

func (lf *lockFlow) refine(flowState, ast.Expr, bool) {}

func (lf *lockFlow) transfer(fs flowState, n ast.Node) {
	st := fs.(*lockState)
	switch n := n.(type) {
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok {
			if key, op, ok := mutexOp(lf.info, call); ok {
				if op == "lock" {
					lf.checkReacquire(call.Pos(), key, st)
					st.held[key] = call.Pos()
				} else {
					delete(st.held, key)
					delete(st.deferred, key)
				}
				return
			}
		}
		lf.scan(st, n.X)
		if isPanicStmt(n) {
			clear(st.held) // the path ends by unwinding, not by a return
		}
	case *ast.DeferStmt:
		// `defer mu.Unlock()`, or a deferred closure that unlocks, releases
		// the lock at return.
		var released ast.Node = n.Call
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			released = lit.Body
		}
		ast.Inspect(released, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if key, op, ok := mutexOp(lf.info, call); ok && op == "unlock" {
					if pos, held := st.held[key]; held {
						st.deferred[key] = pos
					}
					delete(st.held, key)
				}
			}
			return true
		})
		for _, arg := range n.Call.Args {
			lf.scan(st, arg)
		}
	case *ast.GoStmt:
		for _, arg := range n.Call.Args {
			lf.scan(st, arg)
		}
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			lf.scan(st, r)
		}
		if key := minKey(st.held); key != "" {
			lf.reportf(n.Pos(), "return while holding %s; this path is missing an Unlock", key)
		}
		clear(st.held)
	default:
		lf.scan(st, n)
	}
}

// scan reports every blocking operation node n evaluates while a lock is
// held. Func literals are skipped: they execute in their own context.
func (lf *lockFlow) scan(st *lockState, n ast.Node) {
	key := minKey(st.held, st.deferred)
	if !lf.report || key == "" {
		return
	}
	switch w := n.(type) {
	case *rangeBind:
		return // Range.X is its own node, evaluated once before the loop
	case *selectOp:
		lf.blocking(w, key)
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		lf.blocking(m, key)
		return true
	})
}

func (lf *lockFlow) blocking(n ast.Node, key string) {
	switch blockingOp(lf.info, n) {
	case blockSend:
		lf.reportf(n.Pos(), "channel send while holding %s may block with the lock held", key)
	case blockRecv:
		lf.reportf(n.Pos(), "channel receive while holding %s may block with the lock held", key)
	case blockSelect:
		lf.reportf(n.Pos(), "select with no default may block while holding %s", key)
	case blockCall:
		// sync.Cond.Wait releases the mutex while parked.
		if funcFullName(calleeFunc(lf.info, n.(*ast.CallExpr))) != "(*sync.Cond).Wait" {
			lf.reportf(n.Pos(), "blocking call while holding %s", key)
		}
	}
}

// mutexOp classifies call as a sync.Mutex/RWMutex operation.
func mutexOp(info *types.Info, call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch funcFullName(calleeFunc(info, call)) {
	case "(*sync.Mutex).Lock", "(*sync.RWMutex).Lock":
		return types.ExprString(sel.X), "lock", true
	case "(*sync.Mutex).Unlock", "(*sync.RWMutex).Unlock":
		return types.ExprString(sel.X), "unlock", true
	case "(*sync.RWMutex).RLock":
		return types.ExprString(sel.X) + ":r", "lock", true
	case "(*sync.RWMutex).RUnlock":
		return types.ExprString(sel.X) + ":r", "unlock", true
	}
	return "", "", false
}

// checkReacquire flags taking a lock that this path already physically
// holds: Go's mutexes are not reentrant, so a second Lock — including the
// RLock→Lock upgrade and its Lock→RLock mirror — parks the goroutine on
// itself. The legal upgrade is RUnlock first, Lock, revalidate.
func (lf *lockFlow) checkReacquire(pos token.Pos, key string, st *lockState) {
	holds := func(k string) bool {
		_, h := st.held[k]
		if !h {
			_, h = st.deferred[k]
		}
		return h
	}
	base, isRead := strings.CutSuffix(key, ":r")
	switch {
	case holds(key) && isRead:
		lf.reportf(pos, "recursive RLock on %s can deadlock against a queued writer; RWMutex read locks must not nest", base)
	case holds(key):
		lf.reportf(pos, "%s is already locked on this path; Go mutexes are not reentrant, a second Lock self-deadlocks", key)
	case isRead && holds(base):
		lf.reportf(pos, "RLock on %s while its write lock is held self-deadlocks", base)
	case !isRead && holds(key+":r"):
		lf.reportf(pos, "upgrading %s from RLock to Lock self-deadlocks; RUnlock first, then Lock and revalidate", key)
	}
}
