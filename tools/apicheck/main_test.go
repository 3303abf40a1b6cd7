package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// facadeSrc is a minimal stand-in facade package: two funcs, a type
// with a pointer method and a method promoted from an unexported
// embedded type, a const, plus unexported symbols that must never
// reach the baseline.
const facadeSrc = `package facade

type base struct{}

func (base) Name() string { return "" }

func (base) reset() {}

type Widget struct{ base }

func (w *Widget) Spin() {}

const MaxWidgets = 3

func NewWidget() *Widget { return nil }

func DynamicApply() {}

func internalHelper() {}
`

// writeFacade lays out a temp package dir and returns (dir, baseline
// path).
func writeFacade(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "facade.go"), []byte(facadeSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, filepath.Join(dir, "facade.txt")
}

// TestWriteThenCheckRoundTrips pins the happy path: -write produces a
// baseline the gate immediately accepts, covering exactly the
// exported symbols.
func TestWriteThenCheckRoundTrips(t *testing.T) {
	dir, baseline := writeFacade(t)
	if err := run(dir, baseline, true); err != nil {
		t.Fatalf("-write: %v", err)
	}
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	want := "const MaxWidgets\nfunc DynamicApply\nfunc NewWidget\nmethod Widget.Name\nmethod Widget.Spin\ntype Widget\n"
	if string(data) != want {
		t.Fatalf("baseline = %q, want %q", data, want)
	}
	if err := run(dir, baseline, false); err != nil {
		t.Fatalf("gate rejects its own -write output: %v", err)
	}
}

// TestRemovedSymbolFailsGate is the satellite regression case: a
// baseline symbol with no surviving declaration — an export removed
// without a regenerated baseline — must fail the gate.
func TestRemovedSymbolFailsGate(t *testing.T) {
	dir, baseline := writeFacade(t)
	if err := run(dir, baseline, true); err != nil {
		t.Fatal(err)
	}
	// Simulate the removal by deleting DynamicApply from the package
	// while the committed baseline still lists it.
	src := strings.Replace(facadeSrc, "func DynamicApply() {}\n", "", 1)
	if err := os.WriteFile(filepath.Join(dir, "facade.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(dir, baseline, false); err == nil {
		t.Fatal("gate passed with a baseline symbol removed and no alias left behind")
	}
}

// TestRemovedMethodFailsGate is the method-level twin: deleting a
// method from an exported type, its own or a promoted one, must fail
// the gate just like deleting a top-level name.
func TestRemovedMethodFailsGate(t *testing.T) {
	for _, method := range []string{
		"func (w *Widget) Spin() {}\n",
		"func (base) Name() string { return \"\" }\n",
	} {
		dir, baseline := writeFacade(t)
		if err := run(dir, baseline, true); err != nil {
			t.Fatal(err)
		}
		src := strings.Replace(facadeSrc, method, "", 1)
		if err := os.WriteFile(filepath.Join(dir, "facade.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(dir, baseline, false); err == nil {
			t.Fatalf("gate passed with %q removed", strings.TrimSpace(method))
		}
	}
}

// TestAddedSymbolFailsGate pins the other direction: new exports must
// be recorded in the baseline before the gate passes, so API growth
// stays a reviewed act.
func TestAddedSymbolFailsGate(t *testing.T) {
	dir, baseline := writeFacade(t)
	if err := run(dir, baseline, true); err != nil {
		t.Fatal(err)
	}
	src := facadeSrc + "\nfunc NewDynamicWidget() {}\n"
	if err := os.WriteFile(filepath.Join(dir, "facade.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(dir, baseline, false); err == nil {
		t.Fatal("gate passed with an unrecorded new export")
	}
}

// TestMissingBaselineFails pins the bootstrap error: checking against
// a baseline that was never written is an error, not a silent pass.
func TestMissingBaselineFails(t *testing.T) {
	dir, baseline := writeFacade(t)
	if err := run(dir, baseline, false); err == nil {
		t.Fatal("gate passed without a baseline file")
	}
}
