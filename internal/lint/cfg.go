package lint

import (
	"go/ast"
	"go/token"
)

// This file builds the per-function control-flow graph the dataflow engine
// (dataflow.go) solves over. Blocks hold the nodes evaluated on that path —
// plain expressions (conditions, case expressions) and simple statements
// (assignments, sends, go/defer, returns) — never composite statements, so a
// transfer function can walk a node without re-entering nested control flow.
// Two wrapper nodes mark spots where the surrounding construct matters to an
// analyzer: rangeBind (the per-iteration key/value binding of a range loop)
// and selectOp (a select head, and each comm clause's send or receive, which
// only fires once ready).

// CFGEdge is one successor edge. When Cond is non-nil the edge is taken
// exactly when Cond evaluates to true (Negated false) or false (Negated
// true), so an analysis can refine its facts per branch.
type CFGEdge struct {
	To      *CFGBlock
	Cond    ast.Expr
	Negated bool
}

// CFGBlock is a straight-line run of evaluated nodes followed by zero or
// more successor edges. A block with no incoming edges (other than Entry)
// is unreachable and never acquires dataflow facts.
type CFGBlock struct {
	Index int
	Nodes []ast.Node
	Succs []CFGEdge
}

// CFG is the control-flow graph of one function body. Exit collects every
// return and the fall-off-the-end path; Blocks is in creation order, which
// follows source order closely enough for deterministic reporting passes.
type CFG struct {
	Entry  *CFGBlock
	Exit   *CFGBlock
	Blocks []*CFGBlock
}

// rangeBind marks the per-iteration binding of a range statement: Range.Key
// and Range.Value are (re)assigned from Range.X at the top of each
// iteration. The loop body is not inside this node.
type rangeBind struct {
	Range *ast.RangeStmt
}

func (r *rangeBind) Pos() token.Pos { return r.Range.Pos() }
func (r *rangeBind) End() token.Pos { return r.Range.TokPos }

// selectOp wraps one piece of a select statement. With Comm nil it is the
// head, where the goroutine waits for a ready clause — which can block only
// when HasDefault is false. With Comm set it is that clause's send or
// receive, evaluated on the clause's path and never blocking on its own.
// Either way the node spans the whole select.
type selectOp struct {
	Select     *ast.SelectStmt
	HasDefault bool
	Comm       ast.Stmt
}

func (s *selectOp) Pos() token.Pos { return s.Select.Pos() }
func (s *selectOp) End() token.Pos { return s.Select.End() }

// cfgCtx is one enclosing breakable construct (for/switch/select), with the
// continue target when it is a loop.
type cfgCtx struct {
	label      string
	breakTo    *CFGBlock
	continueTo *CFGBlock // nil for switch/select
}

type cfgBuilder struct {
	g            *CFG
	cur          *CFGBlock // nil while the current point is unreachable
	ctxs         []cfgCtx
	labels       map[string]*CFGBlock
	pendingLabel string
	fallthroughs []*CFGBlock // per-switch stack of "next clause" targets
}

// buildCFG constructs the CFG of one function body. Func literals inside the
// body are treated as opaque values: their own bodies get their own CFGs.
func buildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{g: &CFG{}, labels: make(map[string]*CFGBlock)}
	b.g.Entry = b.newBlock()
	b.g.Exit = b.newBlock()
	b.cur = b.g.Entry
	b.stmt(body)
	b.jump(b.g.Exit)
	return b.g
}

func (b *cfgBuilder) newBlock() *CFGBlock {
	blk := &CFGBlock{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// add appends an evaluated node to the current block, reviving an
// unreachable point into a fresh predecessor-less block so the node is still
// recorded (analyses skip blocks without facts).
func (b *cfgBuilder) add(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) edge(from, to *CFGBlock, cond ast.Expr, negated bool) {
	from.Succs = append(from.Succs, CFGEdge{To: to, Cond: cond, Negated: negated})
}

// jump wires the current point to target (if reachable) and leaves the
// builder positioned nowhere.
func (b *cfgBuilder) jump(target *CFGBlock) {
	if b.cur != nil {
		b.edge(b.cur, target, nil, false)
	}
	b.cur = nil
}

// takeLabel consumes the label a surrounding LabeledStmt left for the
// construct being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) labelBlock(name string) *CFGBlock {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

// findCtx resolves a break/continue target: the innermost matching context,
// or the labeled one.
func (b *cfgBuilder) findCtx(label string, needContinue bool) *cfgCtx {
	for i := len(b.ctxs) - 1; i >= 0; i-- {
		c := &b.ctxs[i]
		if needContinue && c.continueTo == nil {
			continue
		}
		if label == "" || c.label == label {
			return c
		}
	}
	return nil
}

// isPanicStmt reports whether s calls panic, which ends its path.
func isPanicStmt(s *ast.ExprStmt) bool {
	call, ok := ast.Unparen(s.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}
	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.jump(lb)
		b.cur = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.IfStmt:
		b.add(s.Init)
		b.add(s.Cond)
		head := b.cur
		if head == nil {
			head = b.newBlock()
			b.cur = head
		}
		then := b.newBlock()
		join := b.newBlock()
		b.edge(head, then, s.Cond, false)
		var elseB *CFGBlock
		if s.Else != nil {
			elseB = b.newBlock()
			b.edge(head, elseB, s.Cond, true)
		} else {
			b.edge(head, join, s.Cond, true)
		}
		b.cur = then
		b.stmt(s.Body)
		b.jump(join)
		if s.Else != nil {
			b.cur = elseB
			b.stmt(s.Else)
			b.jump(join)
		}
		b.cur = join
	case *ast.ForStmt:
		label := b.takeLabel()
		b.add(s.Init)
		head := b.newBlock()
		b.jump(head)
		b.cur = head
		body := b.newBlock()
		after := b.newBlock()
		if s.Cond != nil {
			b.add(s.Cond)
			b.edge(head, body, s.Cond, false)
			b.edge(head, after, s.Cond, true)
		} else {
			b.edge(head, body, nil, false)
		}
		post := b.newBlock()
		b.ctxs = append(b.ctxs, cfgCtx{label: label, breakTo: after, continueTo: post})
		b.cur = body
		b.stmt(s.Body)
		b.jump(post)
		b.ctxs = b.ctxs[:len(b.ctxs)-1]
		b.cur = post
		b.add(s.Post)
		b.jump(head)
		b.cur = after
	case *ast.RangeStmt:
		label := b.takeLabel()
		b.add(s.X)
		head := b.newBlock()
		b.jump(head)
		b.cur = head
		b.add(&rangeBind{Range: s})
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body, nil, false)
		b.edge(head, after, nil, false)
		b.ctxs = append(b.ctxs, cfgCtx{label: label, breakTo: after, continueTo: head})
		b.cur = body
		b.stmt(s.Body)
		b.jump(head)
		b.ctxs = b.ctxs[:len(b.ctxs)-1]
		b.cur = after
	case *ast.SwitchStmt:
		label := b.takeLabel()
		b.add(s.Init)
		b.add(s.Tag)
		b.buildClauses(label, s.Tag == nil, s.Body.List)
	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		b.add(s.Init)
		b.add(s.Assign)
		b.buildClauses(label, false, s.Body.List)
	case *ast.SelectStmt:
		label := b.takeLabel()
		hasDefault := selectHasDefault(s)
		b.add(&selectOp{Select: s, HasDefault: hasDefault})
		head := b.cur
		after := b.newBlock()
		b.ctxs = append(b.ctxs, cfgCtx{label: label, breakTo: after})
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			blk := b.newBlock()
			b.edge(head, blk, nil, false)
			b.cur = blk
			if cc.Comm != nil {
				b.add(&selectOp{Select: s, HasDefault: hasDefault, Comm: cc.Comm})
			}
			for _, st := range cc.Body {
				b.stmt(st)
			}
			b.jump(after)
		}
		b.ctxs = b.ctxs[:len(b.ctxs)-1]
		b.cur = after
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)
	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		var target *CFGBlock
		switch s.Tok {
		case token.BREAK:
			if c := b.findCtx(label, false); c != nil {
				target = c.breakTo
			}
		case token.CONTINUE:
			if c := b.findCtx(label, true); c != nil {
				target = c.continueTo
			}
		case token.GOTO:
			target = b.labelBlock(label)
		case token.FALLTHROUGH:
			if n := len(b.fallthroughs); n > 0 {
				target = b.fallthroughs[n-1]
			}
		}
		if target != nil {
			b.jump(target)
		}
		b.cur = nil
	case *ast.ExprStmt:
		b.add(s)
		// A panic statement terminates the path, which keeps facts on the
		// surviving branch of `if bad { panic(...) }` precise.
		if isPanicStmt(s) {
			b.jump(b.g.Exit)
		}
	default:
		// Simple statements: assignments, declarations, inc/dec, send,
		// go/defer. Evaluated in place as single nodes.
		b.add(s)
	}
}

// buildClauses wires the case clauses of a switch or type switch. boolCases
// is true for a tagless switch, where a single case expression is the branch
// condition and can refine facts.
func (b *cfgBuilder) buildClauses(label string, boolCases bool, clauses []ast.Stmt) {
	head := b.cur
	if head == nil {
		head = b.newBlock()
	}
	after := b.newBlock()
	b.ctxs = append(b.ctxs, cfgCtx{label: label, breakTo: after})

	bodies := make([]*CFGBlock, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		bodies[i] = b.newBlock()
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	for i, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if boolCases && len(cc.List) == 1 {
			b.edge(head, bodies[i], cc.List[0], false)
		} else {
			b.edge(head, bodies[i], nil, false)
		}
	}
	if !hasDefault {
		b.edge(head, after, nil, false)
	}
	for i, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		b.cur = bodies[i]
		for _, e := range cc.List {
			b.add(e)
		}
		next := (*CFGBlock)(nil)
		if i+1 < len(bodies) {
			next = bodies[i+1]
		}
		b.fallthroughs = append(b.fallthroughs, next)
		for _, st := range cc.Body {
			b.stmt(st)
		}
		b.fallthroughs = b.fallthroughs[:len(b.fallthroughs)-1]
		b.jump(after)
	}
	b.ctxs = b.ctxs[:len(b.ctxs)-1]
	b.cur = after
}
