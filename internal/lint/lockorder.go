package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds the repo-global lock-acquisition graph and reports any
// cycle as a potential deadlock, witness path included. Nodes are lock
// classes — a struct-field sync.Mutex/RWMutex identified as
// pkg.Type.field, the same mutexes the `// guarded by` annotations of
// lockcheck name — and an edge A → B means some function acquires B while
// holding A: either a nested Lock call in one body, or a call (possibly
// cross-package, via the LocksFact the analyzer exports on every
// lock-acquiring function) to a function that acquires B. Two goroutines
// taking the same pair of locks in opposite orders is the classic
// deadlock; a cycle in the class graph is its static signature.
//
// The analysis is class-level, not instance-level: acquiring the same
// class twice through *different* receiver expressions (a.mu then b.mu)
// is not reported, since instance-ordered hand-over-hand locking is
// legitimate; re-locking the same receiver expression is (self-deadlock
// for sync.Mutex). Function literals and go statements start with an
// empty held set — a spawned goroutine does not inherit its creator's
// locks. Cycles are reported by the Finish hook once the whole repo's
// graph is merged.
var LockOrder = &Analyzer{
	Name:   "lockorder",
	Doc:    "cross-package lock acquisition order must be acyclic (deadlock freedom)",
	Run:    runLockOrder,
	Finish: finishLockOrder,
}

// LocksFact, exported on a function, records the lock classes the
// function may acquire, transitively through same-package callees and the
// facts of imported ones. Dependent packages consult it to extend held
// edges through cross-package calls.
type LocksFact struct {
	// Acquires lists lock classes ("pkg/path.Type.field"), sorted.
	Acquires []string
}

// AFact marks LocksFact as a fact.
func (*LocksFact) AFact() {}

// LockGraphFact is a package fact carrying the acquired-while-held edges
// discovered in one package; the Finish hook merges all packages' edges
// into the global graph.
type LockGraphFact struct {
	// Edges are the package's lock-order edges, sorted by (From, To).
	Edges []LockEdge
}

// AFact marks LockGraphFact as a fact.
func (*LockGraphFact) AFact() {}

// LockEdge is one acquired-while-held observation.
type LockEdge struct {
	// From is the lock class held at the acquisition site.
	From string
	// To is the lock class being acquired.
	To string
	// Pos locates the acquisition site.
	Pos token.Position
	// Fn names the function containing the site.
	Fn string
	// Via names the callee whose LocksFact contributed To, when the
	// acquisition is indirect; empty for a literal nested Lock call.
	Via string
}

// heldLock is one entry of the walker's held-locks state: the class plus
// the receiver expression it was acquired through, so same-class
// different-instance acquisitions are not misread as self-deadlock.
type heldLock struct {
	class string
	expr  string
}

// orderChecker carries one package's lockorder state.
type orderChecker struct {
	pass     *Pass
	decls    map[*types.Func]*ast.FuncDecl
	callees  map[*types.Func][]*types.Func
	acquired map[*types.Func]map[string]bool
	edges    map[[2]string]LockEdge
	curFn    string
}

func runLockOrder(pass *Pass) error {
	c := &orderChecker{
		pass:     pass,
		decls:    make(map[*types.Func]*ast.FuncDecl),
		callees:  make(map[*types.Func][]*types.Func),
		acquired: make(map[*types.Func]map[string]bool),
		edges:    make(map[[2]string]LockEdge),
	}
	var order []*types.Func
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			c.decls[obj] = fd
			order = append(order, obj)
		}
	}

	// Per-function direct acquisitions and same-package callees, pruning
	// function literals and go statements (they run with their own empty
	// held set).
	for _, fn := range order {
		direct := make(map[string]bool)
		var callees []*types.Func
		ast.Inspect(c.decls[fn].Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				_ = x
				return false
			case *ast.CallExpr:
				if class, _, dir := c.lockClassCall(x); class != "" {
					if dir > 0 {
						direct[class] = true
					}
					return true
				}
				if callee := c.staticCallee(x); callee != nil {
					if callee.Pkg() == pass.Pkg {
						callees = append(callees, callee)
					} else {
						var lf LocksFact
						if pass.ImportObjectFact(callee, &lf) {
							for _, cl := range lf.Acquires {
								direct[cl] = true
							}
						}
					}
				}
			}
			return true
		})
		c.acquired[fn] = direct
		c.callees[fn] = callees
	}

	// Fixpoint: fold callee acquisitions into callers until stable (the
	// call graph is small; cross-package edges were already folded above).
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			acq := c.acquired[fn]
			for _, callee := range c.callees[fn] {
				for cl := range c.acquired[callee] {
					if !acq[cl] {
						acq[cl] = true
						changed = true
					}
				}
			}
		}
	}

	// Edge walk: flow-sensitive held tracking per function body.
	for _, fn := range order {
		c.curFn = fn.Name()
		c.stmt(c.decls[fn].Body, nil)
	}

	// Export facts: per-function acquisition summaries (for dependents)
	// and this package's slice of the global graph (for Finish).
	for _, fn := range order {
		if len(c.acquired[fn]) == 0 {
			continue
		}
		classes := make([]string, 0, len(c.acquired[fn]))
		for cl := range c.acquired[fn] {
			classes = append(classes, cl)
		}
		sort.Strings(classes)
		pass.ExportObjectFact(fn, &LocksFact{Acquires: classes})
	}
	if len(c.edges) > 0 {
		edges := make([]LockEdge, 0, len(c.edges))
		for _, e := range c.edges {
			edges = append(edges, e)
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].From != edges[j].From {
				return edges[i].From < edges[j].From
			}
			return edges[i].To < edges[j].To
		})
		pass.ExportPackageFact(&LockGraphFact{Edges: edges})
	}
	return nil
}

// lockClassCall classifies call as Lock/RLock (+1) or Unlock/RUnlock (-1)
// on a struct-field mutex, returning the lock class ("pkg.Type.field"),
// the receiver expression string, and the direction. Non-mutex calls
// return "".
func (c *orderChecker) lockClassCall(call *ast.CallExpr) (class, expr string, dir int) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", 0
	}
	fn, ok := c.pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", 0
	}
	switch fn.Name() {
	case "Lock", "RLock":
		dir = 1
	case "Unlock", "RUnlock":
		dir = -1
	default:
		return "", "", 0
	}
	recv, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return "", "", 0
	}
	fsel, ok := c.pass.Info.Selections[recv]
	if !ok || fsel.Kind() != types.FieldVal {
		return "", "", 0
	}
	field, ok := fsel.Obj().(*types.Var)
	if !ok {
		return "", "", 0
	}
	owner := recvTypeName(fsel.Recv())
	if owner == "" || field.Pkg() == nil {
		return "", "", 0
	}
	return field.Pkg().Path() + "." + owner + "." + field.Name(), types.ExprString(recv), dir
}

// staticCallee resolves a call to the function object it statically
// invokes (same-package functions, methods, imported functions). Dynamic
// calls — func values, interface methods — return nil.
func (c *orderChecker) staticCallee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := c.pass.Info.Uses[id].(*types.Func)
	return fn
}

// edge records one acquired-while-held observation, keeping the first
// site seen per (from, to) pair.
func (c *orderChecker) edge(from, to string, pos token.Pos, via string) {
	key := [2]string{from, to}
	if _, ok := c.edges[key]; ok {
		return
	}
	c.edges[key] = LockEdge{
		From: from,
		To:   to,
		Pos:  c.pass.Fset.Position(pos),
		Fn:   c.curFn,
		Via:  via,
	}
}

// call folds one call expression into the held state, recording edges for
// acquisitions (literal or through callee facts) and releases for
// unlocks.
func (c *orderChecker) call(call *ast.CallExpr, held []heldLock) []heldLock {
	if class, expr, dir := c.lockClassCall(call); class != "" {
		if dir > 0 {
			for _, h := range held {
				if h.class != class {
					c.edge(h.class, class, call.Pos(), "")
				} else if h.expr == expr {
					// Re-locking the same receiver: self-deadlock for a
					// Mutex, writer starvation hazard for an RWMutex.
					c.edge(h.class, class, call.Pos(), "")
				}
			}
			return append(held, heldLock{class: class, expr: expr})
		}
		// Release: drop the matching acquisition, preferring the exact
		// receiver expression.
		for i := len(held) - 1; i >= 0; i-- {
			if held[i].class == class && held[i].expr == expr {
				return append(held[:i:i], held[i+1:]...)
			}
		}
		for i := len(held) - 1; i >= 0; i-- {
			if held[i].class == class {
				return append(held[:i:i], held[i+1:]...)
			}
		}
		return held
	}
	if len(held) > 0 {
		if callee := c.staticCallee(call); callee != nil {
			for _, to := range c.calleeAcquires(callee) {
				for _, h := range held {
					if h.class != to {
						c.edge(h.class, to, call.Pos(), calleeName(callee))
					}
				}
			}
		}
	}
	return held
}

// calleeAcquires returns the sorted lock classes a callee may acquire:
// the package-local summary for same-package functions, the imported
// LocksFact for cross-package ones.
func (c *orderChecker) calleeAcquires(callee *types.Func) []string {
	var set map[string]bool
	if callee.Pkg() == c.pass.Pkg {
		set = c.acquired[callee]
	} else {
		var lf LocksFact
		if c.pass.ImportObjectFact(callee, &lf) {
			return lf.Acquires
		}
		return nil
	}
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for cl := range set {
		out = append(out, cl)
	}
	sort.Strings(out)
	return out
}

// exprs scans expressions for calls and function literals under the
// current held state. Function literals restart with an empty held set.
func (c *orderChecker) exprs(held []heldLock, list ...ast.Expr) []heldLock {
	for _, e := range list {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				c.stmt(x.Body, nil)
				return false
			case *ast.CallExpr:
				held = c.call(x, held)
			}
			return true
		})
	}
	return held
}

// stmt folds one statement into the held state and returns the state
// after it, cloning at branches like lockcheck: a lock taken inside a
// branch is conservatively considered released at the join.
func (c *orderChecker) stmt(s ast.Stmt, held []heldLock) []heldLock {
	clone := func(h []heldLock) []heldLock {
		return append([]heldLock(nil), h...)
	}
	switch n := s.(type) {
	case nil:
		return held
	case *ast.BlockStmt:
		for _, sub := range n.List {
			held = c.stmt(sub, held)
		}
		return held
	case *ast.ExprStmt:
		return c.exprs(held, n.X)
	case *ast.DeferStmt:
		if class, _, dir := c.lockClassCall(n.Call); class != "" && dir < 0 {
			// Deferred unlock: the section stays open to function end.
			return held
		}
		return c.exprs(held, n.Call)
	case *ast.GoStmt:
		// The spawned goroutine holds nothing; analyze a literal body
		// fresh, and skip the ordering effects of named callees.
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			c.stmt(lit.Body, nil)
		}
		return held
	case *ast.IfStmt:
		held = c.stmt(n.Init, held)
		held = c.exprs(held, n.Cond)
		c.stmt(n.Body, clone(held))
		if n.Else != nil {
			c.stmt(n.Else, clone(held))
		}
		return held
	case *ast.ForStmt:
		held = c.stmt(n.Init, held)
		held = c.exprs(held, n.Cond)
		body := c.stmt(n.Body, clone(held))
		c.stmt(n.Post, body)
		return held
	case *ast.RangeStmt:
		held = c.exprs(held, n.X)
		c.stmt(n.Body, clone(held))
		return held
	case *ast.SwitchStmt:
		held = c.stmt(n.Init, held)
		held = c.exprs(held, n.Tag)
		for _, cl := range n.Body.List {
			cc := cl.(*ast.CaseClause)
			inner := c.exprs(clone(held), cc.List...)
			for _, sub := range cc.Body {
				inner = c.stmt(sub, inner)
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		held = c.stmt(n.Init, held)
		c.stmt(n.Assign, clone(held))
		for _, cl := range n.Body.List {
			cc := cl.(*ast.CaseClause)
			inner := clone(held)
			for _, sub := range cc.Body {
				inner = c.stmt(sub, inner)
			}
		}
		return held
	case *ast.SelectStmt:
		for _, cl := range n.Body.List {
			cc := cl.(*ast.CommClause)
			inner := c.stmt(cc.Comm, clone(held))
			for _, sub := range cc.Body {
				inner = c.stmt(sub, inner)
			}
		}
		return held
	case *ast.LabeledStmt:
		return c.stmt(n.Stmt, held)
	default:
		// Leaf statements (assignments, returns, sends...): check every
		// contained expression for calls.
		ast.Inspect(s, func(sub ast.Node) bool {
			if e, ok := sub.(ast.Expr); ok {
				held = c.exprs(held, e)
				return false
			}
			return true
		})
		return held
	}
}

// finishLockOrder merges every package's edges and reports one diagnostic
// per cycle (strongly connected component) with the witness path.
func finishLockOrder(s *Session) error {
	edges := make(map[string]map[string]LockEdge)
	nodeSet := make(map[string]bool)
	for _, sf := range s.AllPackageFacts(&LockGraphFact{}) {
		gf := sf.Fact.(*LockGraphFact)
		for _, e := range gf.Edges {
			nodeSet[e.From] = true
			nodeSet[e.To] = true
			m := edges[e.From]
			if m == nil {
				m = make(map[string]LockEdge)
				edges[e.From] = m
			}
			if _, ok := m[e.To]; !ok {
				m[e.To] = e
			}
		}
	}
	if len(nodeSet) == 0 {
		return nil
	}
	nodes := make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	for _, comp := range stronglyConnected(nodes, edges) {
		if len(comp) == 1 {
			if _, self := edges[comp[0]][comp[0]]; !self {
				continue
			}
		}
		cycle := witnessCycle(comp, edges)
		if len(cycle) == 0 {
			continue
		}
		var names, sites []string
		for _, e := range cycle {
			names = append(names, displayClass(e.From))
			site := fmt.Sprintf("%s:%d in %s", e.Pos.Filename, e.Pos.Line, e.Fn)
			if e.Via != "" {
				site += " via " + e.Via
			}
			sites = append(sites, fmt.Sprintf("%s acquired while holding %s at %s",
				displayClass(e.To), displayClass(e.From), site))
		}
		names = append(names, displayClass(cycle[0].From))
		s.Reportf("lockorder", cycle[0].Pos,
			"potential deadlock: lock ordering cycle %s (%s)",
			strings.Join(names, " -> "), strings.Join(sites, "; "))
	}
	return nil
}

// stronglyConnected returns the strongly connected components of the
// graph (Tarjan), each sorted, components ordered by smallest member.
func stronglyConnected(nodes []string, edges map[string]map[string]LockEdge) [][]string {
	index := make(map[string]int, len(nodes))
	low := make(map[string]int, len(nodes))
	onStack := make(map[string]bool, len(nodes))
	var stack []string
	var comps [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		succs := make([]string, 0, len(edges[v]))
		for w := range edges[v] {
			succs = append(succs, w)
		}
		sort.Strings(succs)
		for _, w := range succs {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Strings(comp)
			comps = append(comps, comp)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}

// witnessCycle returns a shortest cycle through the component's smallest
// node, as the edge sequence to show in the diagnostic.
func witnessCycle(comp []string, edges map[string]map[string]LockEdge) []LockEdge {
	inComp := make(map[string]bool, len(comp))
	for _, n := range comp {
		inComp[n] = true
	}
	start := comp[0]
	// BFS from start within the component, tracking the edge taken into
	// each node; the first edge returning to start closes the cycle.
	prev := make(map[string]LockEdge)
	queue := []string{start}
	visited := map[string]bool{start: true}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		succs := make([]string, 0, len(edges[v]))
		for w := range edges[v] {
			succs = append(succs, w)
		}
		sort.Strings(succs)
		for _, w := range succs {
			if !inComp[w] {
				continue
			}
			if w == start {
				// Close the cycle: walk prev back from v to start.
				var rev []LockEdge
				rev = append(rev, edges[v][w])
				for v != start {
					e := prev[v]
					rev = append(rev, e)
					v = e.From
				}
				out := make([]LockEdge, 0, len(rev))
				for i := len(rev) - 1; i >= 0; i-- {
					out = append(out, rev[i])
				}
				return out
			}
			if !visited[w] {
				visited[w] = true
				prev[w] = edges[v][w]
				queue = append(queue, w)
			}
		}
	}
	return nil
}

// displayClass shortens a lock class's package path to its base element
// for readable diagnostics; identity in the graph stays fully qualified.
func displayClass(class string) string {
	if i := strings.LastIndexByte(class, '/'); i >= 0 {
		return class[i+1:]
	}
	return class
}

// calleeName renders a callee for diagnostics as pkg.Func or
// pkg.Type.Method.
func calleeName(fn *types.Func) string {
	path := objectPath(fn)
	if path == "" {
		path = fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + path
	}
	return path
}
