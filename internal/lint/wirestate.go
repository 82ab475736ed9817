package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// WireState closes the wire protocol over its three arms. Every frame-type
// constant in a package named "wire" (a package-level constant named
// Type*) must
//
//   - reach the encoder: appear as an argument of a flushFrame call;
//   - be decodable: the Reader declares a matching Read<Suffix> method, or
//     the constant carries a "payload-free" comment marking a frame with
//     no body to decode;
//   - declare who consumes it with a `handled-by: <role>[,<role>]` marker
//     (roles: coordinator, worker), and each declared role must actually
//     handle the frame somewhere in the repo — as a case arm in a switch
//     annotated `// wire-dispatch: <role>`, or at an out-of-switch
//     handling site marked `// wire-handled: <role> <Const>` (handshake
//     reads, inline type checks).
//
// The wire package exports its constants and their encode/decode status
// as a fact, every package exports its dispatch arms, and the Finish hook
// judges the union, so a new constant with any of its three arms missing
// is a build break even when the gap and the constant live in different
// packages, and a role may split its dispatch over several switches (the
// plain and fault-tolerant coordinator loops) and several packages.
//
// Independently, in every package, a switch whose cases compare against
// wire frame-type constants must either list all of them or carry a
// default clause, so an unexpected opcode is handled explicitly instead of
// falling through silently.
var WireState = &Analyzer{
	Name:   "wirestate",
	Doc:    "every wire frame constant needs encode, decode, and per-role handler arms; opcode switches need default or exhaustive cases",
	Run:    runWireState,
	Finish: finishWireState,
}

// WireEnumFact is the package fact a "wire" package exports: one entry
// per frame-type constant with its declared handler roles and its local
// encode/decode status.
type WireEnumFact struct {
	// Consts lists the package's frame-type constants, sorted by name.
	Consts []WireConst
}

// AFact marks WireEnumFact as a fact.
func (*WireEnumFact) AFact() {}

// WireConst describes one frame-type constant.
type WireConst struct {
	// Name is the constant's identifier (TypeHello, ...).
	Name string
	// Roles are the declared handler roles from the handled-by marker.
	Roles []string
	// Encoded reports a flushFrame encode arm in the wire package.
	Encoded bool
	// Decoded reports a Read* decoder method or a payload-free marker.
	Decoded bool
	// Pos locates the constant's declaration.
	Pos token.Position
}

// WireDispatchFact is the package fact any package exports when it
// contains annotated dispatch switches or wire-handled markers: the union
// of frame constants each role handles here.
type WireDispatchFact struct {
	// Handled maps role -> sorted constant names handled in this package.
	Handled map[string][]string
}

// AFact marks WireDispatchFact as a fact.
func (*WireDispatchFact) AFact() {}

var (
	handledByRe    = regexp.MustCompile(`handled-by:[ \t]*([a-z][a-z, \t]*)`)
	wireDispatchRe = regexp.MustCompile(`wire-dispatch:\s*([a-z]+)`)
	wireHandledRe  = regexp.MustCompile(`wire-handled:\s*([a-z]+)\s+(\w+)`)
)

// wireRoles are the protocol endpoints a frame can declare as handler.
var wireRoles = map[string]bool{"coordinator": true, "worker": true}

func runWireState(pass *Pass) error {
	if pass.Pkg.Name() == "wire" {
		collectWireEnum(pass)
	}
	collectWireDispatch(pass)
	checkOpcodeSwitches(pass)
	return nil
}

// wireTypeConst reports whether obj is a frame-type enum constant: a
// package-level constant named Type* declared in a package named wire.
func wireTypeConst(obj types.Object) bool {
	c, ok := obj.(*types.Const)
	if !ok || c.Pkg() == nil || c.Pkg().Name() != "wire" {
		return false
	}
	return strings.HasPrefix(c.Name(), "Type") && c.Parent() == c.Pkg().Scope()
}

// collectWireEnum gathers the wire package's frame constants, their
// handled-by declarations, and their local encode/decode arms, reporting
// missing or malformed markers immediately and exporting the rest as the
// package's WireEnumFact.
func collectWireEnum(pass *Pass) {
	var consts []WireConst
	payloadFree := make(map[string]bool)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				text := ""
				if vs.Doc != nil {
					text += vs.Doc.Text() + "\n"
				}
				if vs.Comment != nil {
					text += vs.Comment.Text()
				}
				for _, name := range vs.Names {
					obj := pass.Info.Defs[name]
					if obj == nil || !wireTypeConst(obj) {
						continue
					}
					payloadFree[name.Name] = strings.Contains(text, "payload-free")
					wc := WireConst{
						Name: name.Name,
						Pos:  pass.Fset.Position(name.Pos()),
					}
					if m := handledByRe.FindStringSubmatch(text); m != nil {
						for _, role := range strings.Split(m[1], ",") {
							role = strings.TrimSpace(role)
							if role == "" {
								continue
							}
							if !wireRoles[role] {
								pass.Reportf(name.Pos(),
									"wire constant %s declares unknown handler role %q (want coordinator and/or worker)",
									name.Name, role)
								continue
							}
							wc.Roles = append(wc.Roles, role)
						}
						sort.Strings(wc.Roles)
					} else {
						pass.Reportf(name.Pos(),
							"wire constant %s has no handled-by marker: declare its consumer(s) with `// handled-by: coordinator[,worker]`",
							name.Name)
					}
					consts = append(consts, wc)
				}
			}
		}
	}
	if len(consts) == 0 {
		return
	}

	// Local encode/decode arms: encode = the constant reaches a flushFrame
	// call; decode = a Read<Suffix> method exists or the constant is marked
	// payload-free.
	encoded := make(map[string]bool)
	readers := make(map[string]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && strings.HasPrefix(fd.Name.Name, "Read") {
				readers[fd.Name.Name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 || !calleeNamed(call, "flushFrame") {
				return true
			}
			for _, arg := range call.Args {
				if id := constIdent(pass, arg); id != "" {
					encoded[id] = true
				}
			}
			return true
		})
	}
	for i := range consts {
		consts[i].Encoded = encoded[consts[i].Name]
		suffix := strings.TrimPrefix(consts[i].Name, "Type")
		consts[i].Decoded = payloadFree[consts[i].Name] || readers["Read"+suffix]
	}
	sort.Slice(consts, func(i, j int) bool { return consts[i].Name < consts[j].Name })
	pass.ExportPackageFact(&WireEnumFact{Consts: consts})
}

// calleeNamed reports whether call invokes a plain or method identifier
// with the given name.
func calleeNamed(call *ast.CallExpr, name string) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == name
	case *ast.SelectorExpr:
		return fun.Sel.Name == name
	}
	return false
}

// constIdent returns the name of the constant an expression resolves to.
func constIdent(pass *Pass, e ast.Expr) string {
	if obj, ok := switchCaseObj(pass, e).(*types.Const); ok {
		return obj.Name()
	}
	return ""
}

// collectWireDispatch gathers, in any package, the case arms of switches
// annotated `// wire-dispatch: <role>` plus inline `// wire-handled:
// <role> <Const>` markers, and exports the per-role union.
func collectWireDispatch(pass *Pass) {
	handled := make(map[string]map[string]bool)
	add := func(role, constName string) {
		set := handled[role]
		if set == nil {
			set = make(map[string]bool)
			handled[role] = set
		}
		set[constName] = true
	}

	for _, f := range pass.Files {
		// Map marker comments by line: wire-dispatch markers annotate the
		// switch on the same or the next line; wire-handled markers stand
		// alone.
		dispatchAt := make(map[int]string)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if m := wireDispatchRe.FindStringSubmatch(c.Text); m != nil {
					if wireRoles[m[1]] {
						dispatchAt[pass.Fset.Position(c.Pos()).Line] = m[1]
					} else {
						pass.Reportf(c.Pos(), "wire-dispatch marker names unknown role %q (want coordinator or worker)", m[1])
					}
				}
				if m := wireHandledRe.FindStringSubmatch(c.Text); m != nil {
					if wireRoles[m[1]] {
						add(m[1], m[2])
					} else {
						pass.Reportf(c.Pos(), "wire-handled marker names unknown role %q (want coordinator or worker)", m[1])
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Body == nil {
				return true
			}
			line := pass.Fset.Position(sw.Pos()).Line
			role := dispatchAt[line]
			if role == "" {
				role = dispatchAt[line-1]
			}
			if role == "" {
				return true
			}
			for _, cl := range sw.Body.List {
				cc := cl.(*ast.CaseClause)
				for _, e := range cc.List {
					if obj := switchCaseObj(pass, e); obj != nil && wireTypeConst(obj) {
						add(role, obj.Name())
					}
				}
			}
			return true
		})
	}
	if len(handled) == 0 {
		return
	}
	fact := &WireDispatchFact{Handled: make(map[string][]string, len(handled))}
	for role, set := range handled {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		fact.Handled[role] = names
	}
	pass.ExportPackageFact(fact)
}

// checkOpcodeSwitches enforces default-or-exhaustive on switches over wire
// frame types, in whatever package they appear.
func checkOpcodeSwitches(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Body == nil {
				return true
			}
			covered := make(map[string]bool)
			var enumPkg *types.Package
			hasDefault := false
			usesWireEnum := false
			for _, cl := range sw.Body.List {
				cc := cl.(*ast.CaseClause)
				if cc.List == nil {
					hasDefault = true
					continue
				}
				for _, e := range cc.List {
					obj := switchCaseObj(pass, e)
					if obj != nil && wireTypeConst(obj) {
						usesWireEnum = true
						covered[obj.Name()] = true
						enumPkg = obj.Pkg()
					}
				}
			}
			if !usesWireEnum || hasDefault {
				return true
			}
			missing := missingEnumConsts(enumPkg, covered)
			if len(missing) > 0 {
				pass.Reportf(sw.Pos(),
					"switch over wire frame types has no default and misses %s: handle them or add a default clause",
					strings.Join(missing, ", "))
			}
			return true
		})
	}
}

// switchCaseObj resolves a case expression to its constant object.
func switchCaseObj(pass *Pass, e ast.Expr) types.Object {
	switch x := e.(type) {
	case *ast.Ident:
		return pass.Info.Uses[x]
	case *ast.SelectorExpr:
		return pass.Info.Uses[x.Sel]
	}
	return nil
}

// missingEnumConsts lists the wire frame-type constants of pkg absent from
// covered, sorted by enum value.
func missingEnumConsts(pkg *types.Package, covered map[string]bool) []string {
	if pkg == nil {
		return nil
	}
	type entry struct {
		name string
		val  uint64
	}
	var missing []entry
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !wireTypeConst(obj) || covered[name] {
			continue
		}
		val, _ := constant.Uint64Val(constant.ToInt(obj.(*types.Const).Val()))
		missing = append(missing, entry{name: name, val: val})
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i].val < missing[j].val })
	out := make([]string, len(missing))
	for i, m := range missing {
		out[i] = fmt.Sprintf("%s.%s", pkg.Name(), m.name)
	}
	return out
}

// finishWireState unions every package's dispatch arms and verifies each
// frame constant's three arms: encode, decode, and a handler per declared
// role.
func finishWireState(s *Session) error {
	handled := make(map[string]map[string]bool)
	for _, sf := range s.AllPackageFacts(&WireDispatchFact{}) {
		df := sf.Fact.(*WireDispatchFact)
		for role, names := range df.Handled {
			set := handled[role]
			if set == nil {
				set = make(map[string]bool)
				handled[role] = set
			}
			for _, n := range names {
				set[n] = true
			}
		}
	}
	for _, sf := range s.AllPackageFacts(&WireEnumFact{}) {
		ef := sf.Fact.(*WireEnumFact)
		for _, wc := range ef.Consts {
			if !wc.Encoded {
				s.Reportf("wirestate", wc.Pos,
					"wire constant %s has no encode arm: no Writer method passes it to flushFrame", wc.Name)
			}
			if !wc.Decoded {
				s.Reportf("wirestate", wc.Pos,
					"wire constant %s has no decode arm: declare Read%s on Reader or mark the constant payload-free",
					wc.Name, strings.TrimPrefix(wc.Name, "Type"))
			}
			for _, role := range wc.Roles {
				if !handled[role][wc.Name] {
					s.Reportf("wirestate", wc.Pos,
						"wire constant %s declares handled-by: %s but no %s dispatch handles it: add a case in a `// wire-dispatch: %s` switch or a `// wire-handled: %s %s` marker",
						wc.Name, role, role, role, role, wc.Name)
				}
			}
		}
	}
	return nil
}
