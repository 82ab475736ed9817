// Command repolint runs the repo-specific static analysis suite
// (internal/lint) over Go packages, whole-program: all packages are
// analyzed in one session with a shared fact store, so wirestate's
// whole-repo Finish check sees every package's wire frames and dispatch
// arms:
//
//	repolint ./...
//	repolint -run lockcheck,wirestate ./...
//
// Exit status: 0 clean, 1 findings, 2 usage or internal error.
// docs/LINTING.md describes every analyzer and the suppression syntax.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("repolint", flag.ExitOnError)
	var (
		runSel = fs.String("run", "", "comma-separated analyzer subset (default: all)")
		list   = fs.Bool("list", false, "list analyzers and exit")
		dir    = fs.String("C", "", "change to dir before loading packages")
	)
	fs.Parse(args) //nolint:errcheck // ExitOnError

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := lint.ByName(*runSel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(*dir, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	diags, err := lint.RunAll(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	relativize(diags, *dir)
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// relativize rewrites absolute diagnostic paths relative to the working
// directory (or -C dir), so findings read the same in every checkout.
func relativize(diags []lint.Diagnostic, dir string) {
	base := dir
	if base == "" {
		base, _ = os.Getwd()
	}
	abs, err := filepath.Abs(base)
	if err != nil {
		return
	}
	for i := range diags {
		if !filepath.IsAbs(diags[i].Pos.Filename) {
			continue
		}
		rel, err := filepath.Rel(abs, diags[i].Pos.Filename)
		if err != nil || strings.HasPrefix(rel, "..") {
			continue
		}
		diags[i].Pos.Filename = filepath.ToSlash(rel)
	}
}
