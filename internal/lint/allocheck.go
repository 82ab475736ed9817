package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AllocCheck statically verifies the `// hotpath: zero-alloc` contract:
// a function carrying that marker in its doc comment — the emit path, the
// batch pool, the verifier pool's claim loop — must be free of allocation
// sites, and so must every function it statically calls, transitively,
// across package boundaries. The benchmark (BenchmarkEmitPath, 0
// allocs/op) proves the property dynamically for the inputs it runs;
// this analyzer enforces it for every path through the code.
//
// Allocation sites: make/new, escaping composite literals (&T{...},
// slice and map literals), append outside the amortized self-append form
// `x = append(x, ...)`, function literals and method values (closure
// allocation), go statements, string concatenation, map writes,
// conversions of concrete values to interface types (boxing), and
// variadic calls without a `...` spread (the argument slice). Plain
// struct value literals are allowed — they live in registers or the
// caller's frame.
//
// Call-tree coverage uses facts: every package exports an AllocFact per
// function recording its transitive allocation status, and a hot
// function's cross-package calls consult the callee's fact. Dynamic
// calls — func values, interface methods — cannot be resolved statically
// and are trusted (their signatures are still checked for boxing at the
// call site); the benchmark remains the gate for those. Calls into the
// standard library are allowed only for packages known alloc-free on
// these paths (sync, sync/atomic, time, math, math/bits, unicode,
// unicode/utf8); anything else is reported as unverifiable.
var AllocCheck = &Analyzer{
	Name: "allocheck",
	Doc:  "functions marked `// hotpath: zero-alloc` (and their call trees) must not allocate",
	Run:  runAllocCheck,
}

// AllocFact, exported on every package-level function and method, records
// whether the function may allocate on some path, transitively through
// its static callees. Dependent packages consult it when a hot path calls
// across a package boundary.
type AllocFact struct {
	// Allocates reports whether any path through the function allocates.
	Allocates bool
	// What describes the first allocation site when Allocates is true.
	What string
}

// AFact marks AllocFact as a fact.
func (*AllocFact) AFact() {}

// hotpathMarker is the doc-comment annotation that opts a function into
// static zero-alloc verification.
const hotpathMarker = "hotpath: zero-alloc"

// allocSite is one direct allocation found in a function body.
type allocSite struct {
	pos  token.Pos
	what string
}

// allocCall is one static call found in a function body, to be resolved
// against the callee's summary or fact.
type allocCall struct {
	pos    token.Pos
	callee *types.Func
}

// allocSummary is the per-function result of the body scan.
type allocSummary struct {
	decl  *ast.FuncDecl
	hot   bool
	sites []allocSite
	calls []allocCall
	// allocates/what is the transitive status after the fixpoint.
	allocates bool
	what      string
	whatPos   token.Pos
}

// allocSafeStdlib lists standard-library packages whose functions are
// trusted not to allocate on the paths hot code uses (sync.Pool recycles,
// atomics and time reads are value-returning, the unicode predicates and
// UTF-8 codecs are table lookups and arithmetic; utf8.AppendRune grows its
// argument the way the allowed `x = append(x, ...)` does).
var allocSafeStdlib = map[string]bool{
	"sync":         true,
	"sync/atomic":  true,
	"time":         true,
	"math":         true,
	"math/bits":    true,
	"unicode":      true,
	"unicode/utf8": true,
}

func runAllocCheck(pass *Pass) error {
	c := &allocChecker{pass: pass, summaries: make(map[*types.Func]*allocSummary)}
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
			sum := &allocSummary{decl: fd, hot: hasHotpathMarker(fd)}
			c.scanBody(fd.Body, sum)
			c.summaries[obj] = sum
			order = append(order, obj)
		}
	}

	// Seed transitive status: direct sites, then cross-package callee
	// facts and unverifiable calls.
	for _, fn := range order {
		sum := c.summaries[fn]
		if len(sum.sites) > 0 {
			sum.allocates = true
			sum.what = sum.sites[0].what
			sum.whatPos = sum.sites[0].pos
			continue
		}
		for _, call := range sum.calls {
			if call.callee.Pkg() == pass.Pkg {
				continue // resolved in the fixpoint below
			}
			if what, bad := c.externalAllocates(call.callee); bad {
				sum.allocates = true
				sum.what = what
				sum.whatPos = call.pos
				break
			}
		}
	}

	// Fixpoint over same-package calls: a caller allocates if any callee
	// does. Iterate until stable (recursion converges: status only flips
	// false -> true).
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			sum := c.summaries[fn]
			if sum.allocates {
				continue
			}
			for _, call := range sum.calls {
				callee, ok := c.summaries[call.callee]
				if !ok || !callee.allocates {
					continue
				}
				sum.allocates = true
				sum.what = "call to " + calleeName(call.callee) + ", which allocates (" + callee.what + ")"
				sum.whatPos = call.pos
				changed = true
				break
			}
		}
	}

	// Export facts for dependents, report violations on hot functions.
	for _, fn := range order {
		sum := c.summaries[fn]
		if objectPath(fn) != "" {
			pass.ExportObjectFact(fn, &AllocFact{Allocates: sum.allocates, What: sum.what})
		}
		if !sum.hot {
			continue
		}
		if sum.allocates {
			// Report the first offending site; further sites surface once
			// the first is fixed, keeping the output focused.
			pass.Reportf(sum.whatPos, "hot path %s allocates: %s", fn.Name(), sum.what)
		}
		// Every additional direct site also gets its own diagnostic so a
		// fix-all sweep sees the full list at once.
		for _, site := range sum.sites[min(1, len(sum.sites)):] {
			pass.Reportf(site.pos, "hot path %s allocates: %s", fn.Name(), site.what)
		}
	}
	return nil
}

// hasHotpathMarker reports whether the function's doc comment carries the
// zero-alloc annotation.
func hasHotpathMarker(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.Contains(c.Text, hotpathMarker) {
			return true
		}
	}
	return false
}

// allocChecker carries one package's allocheck state.
type allocChecker struct {
	pass      *Pass
	summaries map[*types.Func]*allocSummary
}

// externalAllocates resolves a cross-package callee: the stdlib
// allowlist first (the loader analyzes no standard-library source, so
// those packages have no facts), then its AllocFact when one was exported
// (dependency packages run first). Unknown externals count as
// allocating — unverifiable is a finding, not a pass.
func (c *allocChecker) externalAllocates(callee *types.Func) (what string, bad bool) {
	pkg := callee.Pkg()
	if pkg == nil || allocSafeStdlib[pkg.Path()] {
		return "", false
	}
	var af AllocFact
	if c.pass.ImportObjectFact(callee, &af) {
		if af.Allocates {
			return "call to " + calleeName(callee) + ", which allocates (" + af.What + ")", true
		}
		return "", false
	}
	return "call to " + calleeName(callee) + " (package " + pkg.Path() + " not verified alloc-free)", true
}

// scanBody walks one function body recording direct allocation sites and
// static call sites. Function literals are themselves sites; their bodies
// are not descended into (a closure that never runs still allocates, and
// if it runs on the hot path it should carry its own named declaration).
func (c *allocChecker) scanBody(body *ast.BlockStmt, sum *allocSummary) {
	info := c.pass.Info
	// callFuns marks expressions appearing as the Fun of a call, so a
	// selector that *invokes* a method is not misread as a method value.
	callFuns := make(map[ast.Expr]bool)
	// selfAppends marks append calls in the amortized self-assign form.
	selfAppends := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			callFuns[x.Fun] = true
		case *ast.AssignStmt:
			if len(x.Lhs) == 1 && len(x.Rhs) == 1 {
				if call, ok := x.Rhs[0].(*ast.CallExpr); ok && isBuiltinCall(info, call, "append") {
					if len(call.Args) > 0 && types.ExprString(call.Args[0]) == types.ExprString(x.Lhs[0]) {
						selfAppends[call] = true
					}
				}
			}
		}
		return true
	})

	site := func(pos token.Pos, what string) {
		sum.sites = append(sum.sites, allocSite{pos: pos, what: what})
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			site(x.Pos(), "function literal (closure allocation)")
			return false
		case *ast.GoStmt:
			site(x.Pos(), "go statement (new goroutine)")
			return false
		case *ast.CompositeLit:
			c.compositeLit(x, site)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if lit, ok := x.X.(*ast.CompositeLit); ok {
					site(lit.Pos(), "escaping composite literal (&"+types.ExprString(lit.Type)+"{...})")
					return false
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(info.TypeOf(x)) {
				site(x.Pos(), "string concatenation")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(info.TypeOf(x.Lhs[0])) {
				site(x.Pos(), "string concatenation (+=)")
			}
			for _, lhs := range x.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok {
					if _, isMap := info.TypeOf(ix.X).Underlying().(*types.Map); isMap {
						site(lhs.Pos(), "map write (may grow the map)")
					}
				}
			}
			c.boxingAssign(x, site)
		case *ast.SelectorExpr:
			if !callFuns[x] {
				if fsel, ok := info.Selections[x]; ok && fsel.Kind() == types.MethodVal {
					site(x.Pos(), "method value (closure allocation)")
				}
			}
		case *ast.CallExpr:
			c.callExpr(x, selfAppends, site, sum)
		}
		return true
	})
}

// compositeLit flags slice and map literals (backing store allocation);
// struct and array value literals pass.
func (c *allocChecker) compositeLit(lit *ast.CompositeLit, site func(token.Pos, string)) {
	t := c.pass.Info.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		site(lit.Pos(), "slice literal (backing array allocation)")
	case *types.Map:
		site(lit.Pos(), "map literal")
	}
}

// callExpr classifies one call: builtin make/new/append, conversion to
// interface, variadic argument slice, interface boxing at arguments, and
// static callee recording.
func (c *allocChecker) callExpr(call *ast.CallExpr, selfAppends map[*ast.CallExpr]bool, site func(token.Pos, string), sum *allocSummary) {
	info := c.pass.Info
	// Builtins.
	if name, ok := builtinName(info, call); ok {
		switch name {
		case "make":
			site(call.Pos(), "make")
		case "new":
			site(call.Pos(), "new")
		case "append":
			if !selfAppends[call] {
				site(call.Pos(), "append outside the self-assign form `x = append(x, ...)`")
			}
		}
		return
	}
	// Conversions: T(x) where T is a type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && boxes(info.TypeOf(call.Args[0])) {
			site(call.Pos(), "conversion to interface type (boxing)")
		}
		return
	}
	sig, _ := info.TypeOf(call.Fun).(*types.Signature)
	if sig != nil {
		if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= sig.Params().Len() {
			site(call.Pos(), "variadic call (argument slice allocation)")
		}
		c.boxingArgs(call, sig, site)
	}
	// Static callee for the transitive check.
	if callee := staticCalleeOf(info, call); callee != nil {
		sum.calls = append(sum.calls, allocCall{pos: call.Pos(), callee: callee})
	}
}

// boxingArgs flags concrete values passed to interface-typed parameters.
func (c *allocChecker) boxingArgs(call *ast.CallExpr, sig *types.Signature, site func(token.Pos, string)) {
	info := c.pass.Info
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic() && call.Ellipsis == token.NoPos:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		default:
			continue
		}
		at := info.TypeOf(arg)
		if !types.IsInterface(pt) || !boxes(at) {
			continue
		}
		if isUntypedNil(info, arg) {
			continue
		}
		site(arg.Pos(), "interface conversion at argument (boxing)")
	}
}

// boxingAssign flags concrete values assigned to interface-typed
// destinations.
func (c *allocChecker) boxingAssign(x *ast.AssignStmt, site func(token.Pos, string)) {
	info := c.pass.Info
	if len(x.Lhs) != len(x.Rhs) {
		return
	}
	for i := range x.Lhs {
		lt := info.TypeOf(x.Lhs[i])
		rt := info.TypeOf(x.Rhs[i])
		if lt == nil || rt == nil {
			continue
		}
		if types.IsInterface(lt) && boxes(rt) && !isUntypedNil(info, x.Rhs[i]) {
			site(x.Rhs[i].Pos(), "interface conversion in assignment (boxing)")
		}
	}
}

// boxes reports whether storing a value of type t in an interface copies it
// to the heap. An interface value is stored as it is, and a pointer-shaped
// value (pointer, channel, map, func) is the interface's data word itself.
func boxes(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer
	}
	return true
}

// builtinName resolves a call to a builtin's name.
func builtinName(info *types.Info, call *ast.CallExpr) (string, bool) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return "", false
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name(), true
	}
	return "", false
}

// isBuiltinCall reports whether call invokes the named builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	n, ok := builtinName(info, call)
	return ok && n == name
}

// staticCalleeOf resolves a call's static callee function, nil for
// dynamic calls: func values and interface methods, whichever package
// declares the interface.
func staticCalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn != nil {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			return nil
		}
	}
	return fn
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isUntypedNil reports whether e is the predeclared nil.
func isUntypedNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}
