package ssjoin

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The CLI's flag budget: definitions on the default FlagSet across every
// cmd/*/main.go, and distinct flag names among them (a name several
// commands share, like -seed, counts once).
const (
	maxFlagDefinitions = 40
	maxFlagNames       = 33
)

// TestCLIFlagBudget fails when a command grows the CLI past the budget, so
// a new flag has to retire another.
func TestCLIFlagBudget(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 5 {
		t.Fatalf("suspiciously few commands found: %d", len(files))
	}
	fset := token.NewFileSet()
	defs := 0
	names := make(map[string][]string) // flag name → defining commands
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			arg, defines := flagNameArg(sel.Sel.Name)
			if !defines {
				return true
			}
			if arg >= len(call.Args) {
				t.Fatalf("%s: flag.%s with %d arguments", pos(fset, call.Pos()), sel.Sel.Name, len(call.Args))
			}
			lit, ok := call.Args[arg].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Fatalf("%s: flag.%s name is not a string literal, so it cannot be counted", pos(fset, call.Pos()), sel.Sel.Name)
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatalf("%s: %v", pos(fset, lit.Pos()), err)
			}
			defs++
			names[name] = append(names[name], filepath.Base(filepath.Dir(path)))
			return true
		})
	}
	if defs > maxFlagDefinitions || len(names) > maxFlagNames {
		list := make([]string, 0, len(names))
		for name, cmds := range names {
			list = append(list, "-"+name+" ("+strings.Join(cmds, ", ")+")")
		}
		sort.Strings(list)
		t.Fatalf("CLI has %d flag definitions (budget %d) and %d distinct names (budget %d):\n%s",
			defs, maxFlagDefinitions, len(names), maxFlagNames, strings.Join(list, "\n"))
	}
	t.Logf("%d flag definitions, %d distinct names", defs, len(names))
}

// flagNameArg reports whether flag.<fn> defines a flag on the default
// FlagSet and, if so, which argument is the flag's name: the first for
// flag.Int, flag.Func and friends, the second for the *Var forms, which
// take the destination first.
func flagNameArg(fn string) (arg int, defines bool) {
	switch fn {
	case "Bool", "Duration", "Float64", "Int", "Int64", "String", "Uint", "Uint64",
		"Func", "BoolFunc":
		return 0, true
	case "BoolVar", "DurationVar", "Float64Var", "IntVar", "Int64Var", "StringVar",
		"UintVar", "Uint64Var", "TextVar", "Var":
		return 1, true
	}
	return 0, false
}
