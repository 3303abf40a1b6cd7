// Command apicheck is the facade API-compatibility gate: it lists the
// exported top-level symbols of the root sinrdiag package, and the
// exported methods of each exported type, and compares them against
// the checked-in baseline api/facade.txt.
//
// The check fails when a baseline symbol is missing — removing an
// exported facade name or method breaks downstream code, so a removal
// must come with a regenerated baseline — and when a new exported
// symbol is not yet recorded, so API growth and shrinkage are both
// reviewed, explicit acts:
//
//	go run ./tools/apicheck          # gate (CI runs this)
//	go run ./tools/apicheck -write   # regenerate the baseline
//
// The baseline is one "kind name" line per top-level symbol (e.g.
// "func NewResolver", "type Locator") and one "method Type.Name" line
// per method of a type's method set, promoted methods and the methods
// of aliased internal types included, sorted, so API diffs read
// naturally in review.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
)

func main() {
	dir := flag.String("dir", ".", "directory of the facade package")
	baseline := flag.String("baseline", "api/facade.txt", "baseline symbol list")
	write := flag.Bool("write", false, "regenerate the baseline instead of checking")
	flag.Parse()

	if err := run(*dir, *baseline, *write); err != nil {
		fmt.Fprintln(os.Stderr, "apicheck:", err)
		os.Exit(1)
	}
}

func run(dir, baseline string, write bool) error {
	current, err := exportedSymbols(dir)
	if err != nil {
		return err
	}
	if write {
		out := strings.Join(current, "\n") + "\n"
		if err := os.WriteFile(baseline, []byte(out), 0o644); err != nil {
			return err
		}
		fmt.Printf("apicheck: wrote %s (%s)\n", baseline, summary(current))
		return nil
	}

	data, err := os.ReadFile(baseline)
	if err != nil {
		return fmt.Errorf("reading baseline (run with -write to create it): %w", err)
	}
	want := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			want[line] = true
		}
	}
	got := map[string]bool{}
	for _, s := range current {
		got[s] = true
	}

	var removed, added []string
	for s := range want {
		if !got[s] {
			removed = append(removed, s)
		}
	}
	for s := range got {
		if !want[s] {
			added = append(added, s)
		}
	}
	sort.Strings(removed)
	sort.Strings(added)

	if len(removed) > 0 {
		fmt.Fprintf(os.Stderr, "apicheck: %d exported facade symbol(s) removed (restore them, or record an intended removal with `go run ./tools/apicheck -write`):\n", len(removed))
		for _, s := range removed {
			fmt.Fprintf(os.Stderr, "  - %s\n", s)
		}
	}
	if len(added) > 0 {
		fmt.Fprintf(os.Stderr, "apicheck: %d new exported facade symbol(s) not in the baseline (run `go run ./tools/apicheck -write` and commit %s):\n", len(added), baseline)
		for _, s := range added {
			fmt.Fprintf(os.Stderr, "  + %s\n", s)
		}
	}
	if len(removed) > 0 || len(added) > 0 {
		return fmt.Errorf("facade API drifted from %s", baseline)
	}
	fmt.Printf("apicheck: facade API matches %s (%s)\n", baseline, summary(current))
	return nil
}

// summary counts baseline lines as top-level symbols and methods.
func summary(syms []string) string {
	methods := 0
	for _, s := range syms {
		if strings.HasPrefix(s, "method ") {
			methods++
		}
	}
	return fmt.Sprintf("%d top-level symbols, %d methods", len(syms)-methods, methods)
}

// exportedSymbols type-checks the non-test files of the package in
// dir and returns its exported API as sorted baseline lines. Imports
// are type-checked from source, which needs no build cache or network.
func exportedSymbols(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	var syms []string
	for name, pkg := range pkgs {
		files := make([]*ast.File, 0, len(pkg.Files))
		for _, f := range pkg.Files {
			files = append(files, f)
		}
		conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
		tpkg, err := conf.Check(name, fset, files, nil)
		if err != nil {
			return nil, err
		}
		scope := tpkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			switch obj := obj.(type) {
			case *types.Func:
				syms = append(syms, "func "+name)
			case *types.Const:
				syms = append(syms, "const "+name)
			case *types.Var:
				syms = append(syms, "var "+name)
			case *types.TypeName:
				syms = append(syms, "type "+name)
				syms = append(syms, methodLines(name, obj.Type())...)
			}
		}
	}
	sort.Strings(syms)
	return syms, nil
}

// methodLines lists the exported methods of t's method set — of *t
// unless t is an interface — as "method name.Method" lines.
func methodLines(name string, t types.Type) []string {
	if !types.IsInterface(t) {
		t = types.NewPointer(t)
	}
	var lines []string
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if m := ms.At(i).Obj(); m.Exported() {
			lines = append(lines, "method "+name+"."+m.Name())
		}
	}
	return lines
}
