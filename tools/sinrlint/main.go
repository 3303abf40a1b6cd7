// Command sinrlint enforces the repo's two load-bearing static
// invariants — allocation-free hot paths and byte-identical
// determinism — plus the serving layer's handler discipline, at
// analysis time instead of after a benchmark or a flaky -verify run
// has already caught the regression.
//
// Three coordinated passes:
//
//   - escape-gate: functions annotated //sinr:hotpath are compiled
//     with -gcflags=-m=1 and any heap escape the compiler reports
//     inside them fails the run, making the bench-gate's 0-alloc rule
//     a static per-function guarantee. The annotation set is
//     cross-checked against api/hotlist.txt (benchmark -> function),
//     which a test pins to the CI bench-gate -hot regexp, so the two
//     tools cannot drift. Amortized warm-up allocations are
//     acknowledged line by line with //sinr:alloc-ok <reason>.
//
//   - determinism: in the deterministic packages (core, sched,
//     dynamic, resolve, shardindex, geom, kdtree, reconcile, verify) a
//     range over a map whose results can feed ordered output without
//     an intervening sort, any wall-clock read (time.Now, time.Since,
//     ...), and any unseeded global math/rand call are violations,
//     suppressible only by //sinr:nondeterministic-ok <reason>.
//
//   - serve-discipline: in internal/serve and internal/metrics,
//     handler-path constructs known to allocate or block — fresh
//     contexts that orphan cancellation, per-request map creation,
//     stream read loops that never consult the request context, fmt
//     on an annotated hot path — are violations, suppressible by
//     //sinr:serve-ok <reason>.
//
// Every suppression in effect is inventoried in the report, and a
// directive that no longer suppresses anything is itself an error, so
// the waiver list can only shrink by review.
//
// Usage:
//
//	go run ./tools/sinrlint ./...          # gate (CI runs this)
//	go run ./tools/sinrlint -escape=false ./internal/core
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// config is the full run configuration; tests construct it directly
// to point the linter at testdata modules.
type config struct {
	dir       string   // module directory go list runs in
	patterns  []string // package patterns, e.g. ./...
	hotlist   string   // benchmark->function map file; "" disables the cross-check
	escape    bool     // run the compiler escape-gate
	detPkgs   []string // module-relative import paths under the determinism pass
	servePkgs []string // module-relative import paths under the serve-discipline pass
}

// defaultDetPkgs are the packages whose outputs must be byte-identical
// across runs: the deterministic schedulers, the epoch-snapshot
// machinery, everything a resolver answer flows through, and the
// checks that hold served answers to them.
var defaultDetPkgs = []string{
	"internal/core",
	"internal/sched",
	"internal/dynamic",
	"internal/resolve",
	"internal/shardindex",
	"internal/geom",
	"internal/kdtree",
	"internal/reconcile",
	"internal/verify",
}

// defaultServePkgs are the request-path packages held to the handler
// discipline rules.
var defaultServePkgs = []string{
	"internal/serve",
	"internal/metrics",
	"internal/trace",
}

// diag is one finding, positioned at the offending source line.
type diag struct {
	file string // module-relative path
	line int
	col  int
	pass string // escape | determinism | serve | hotlist | directive
	msg  string
}

func (d diag) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.file, d.line, d.col, d.pass, d.msg)
}

func main() {
	hotlist := flag.String("hotlist", "api/hotlist.txt", "benchmark->function hot list for the escape-gate cross-check (empty disables)")
	escape := flag.Bool("escape", true, "run the -gcflags=-m escape-gate over //sinr:hotpath functions")
	det := flag.String("det-pkgs", strings.Join(defaultDetPkgs, ","), "comma-separated module-relative packages under the determinism pass")
	serve := flag.String("serve-pkgs", strings.Join(defaultServePkgs, ","), "comma-separated module-relative packages under the serve-discipline pass")
	dir := flag.String("C", ".", "module directory to lint")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cfg := config{
		dir:       *dir,
		patterns:  patterns,
		hotlist:   *hotlist,
		escape:    *escape,
		detPkgs:   splitList(*det),
		servePkgs: splitList(*serve),
	}
	diags, report, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sinrlint:", err)
		os.Exit(2)
	}
	fmt.Print(report)
	if len(diags) > 0 {
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
		fmt.Fprintf(os.Stderr, "sinrlint: %d violation(s)\n", len(diags))
		os.Exit(1)
	}
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// run executes all passes and returns the sorted violations plus the
// human report (pass summary and suppression inventory).
func run(cfg config) ([]diag, string, error) {
	mod, err := load(cfg)
	if err != nil {
		return nil, "", err
	}

	var diags []diag
	diags = append(diags, checkDeterminism(mod, cfg.detPkgs)...)
	diags = append(diags, checkServe(mod, cfg.servePkgs)...)

	hot := collectHotpath(mod)
	diags = append(diags, checkHotpathStatic(mod, hot)...)
	if cfg.hotlist != "" {
		hd, err := checkHotlist(mod, hot, cfg.hotlist)
		if err != nil {
			return nil, "", err
		}
		diags = append(diags, hd...)
	}
	if cfg.escape {
		ed, err := checkEscapes(mod, hot)
		if err != nil {
			return nil, "", err
		}
		diags = append(diags, ed...)
	}

	// A directive that suppresses nothing is stale: it waives an
	// invariant that is no longer violated, and stale waivers are how
	// suppression lists rot. hotpath directives are declarations, not
	// suppressions, and are exempt.
	for _, d := range mod.directives {
		if d.kind != dirHotpath && !d.used {
			diags = append(diags, diag{
				file: mod.rel(d.file), line: d.line, col: 1, pass: "directive",
				msg: fmt.Sprintf("//sinr:%s suppresses nothing; delete it", d.kind),
			})
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		if a.col != b.col {
			return a.col < b.col
		}
		return a.msg < b.msg
	})

	var rep strings.Builder
	var used []*directive
	for _, d := range mod.directives {
		if d.kind != dirHotpath && d.used {
			used = append(used, d)
		}
	}
	sort.Slice(used, func(i, j int) bool {
		if used[i].file != used[j].file {
			return used[i].file < used[j].file
		}
		return used[i].line < used[j].line
	})
	if len(used) > 0 {
		fmt.Fprintf(&rep, "sinrlint: %d suppression(s) in effect:\n", len(used))
		for _, d := range used {
			fmt.Fprintf(&rep, "  %s:%d: //sinr:%s %s\n", mod.rel(d.file), d.line, d.kind, d.reason)
		}
	}
	if len(diags) == 0 {
		fmt.Fprintf(&rep, "sinrlint: ok (%d packages, %d hotpath functions, %d suppressions)\n",
			len(mod.pkgs), len(hot), len(used))
	}
	return diags, rep.String(), nil
}
