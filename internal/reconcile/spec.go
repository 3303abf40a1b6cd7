package reconcile

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/serve"
)

// ParseSpec decodes one JSON spec document into a NetworkSpec with
// serve.DecodeSpec, the decoder POST /v1/networks uses: unknown fields
// and any content after the document are errors.
func ParseSpec(data []byte) (*serve.NetworkSpec, error) {
	if len(bytes.TrimSpace(data)) == 0 {
		return nil, fmt.Errorf("empty spec")
	}
	spec, err := serve.DecodeSpec(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("bad spec: %w", err)
	}
	return spec, nil
}

// specFile is one successfully parsed spec file: the normalized spec
// and the content hash its registry generation will carry.
type specFile struct {
	path string
	spec *serve.NetworkSpec
	hash string
}

// specError is one file the lister could not turn into a spec.
type specError struct {
	path string
	err  error
}

// isSpecPath reports whether a directory entry looks like a spec file:
// a regular .json/.yaml/.yml file that is not hidden and not an
// editor/atomic-write artifact (*.tmp and dotfiles are skipped so
// write-then-rename producers never expose half files). Specs are JSON
// only; .yaml/.yml files are still listed so that each one surfaces
// as a spec error instead of being silently ignored.
func isSpecPath(name string) bool {
	if strings.HasPrefix(name, ".") {
		return false
	}
	switch strings.ToLower(filepath.Ext(name)) {
	case ".json", ".yaml", ".yml":
		return true
	}
	return false
}

// loadSpecDir lists dir and parses every spec file, in lexical path
// order. Files that fail to read, parse, or normalize are reported as
// specErrors, never dropped silently. A missing or unreadable
// directory is one specError for the directory itself — the caller
// treats it like "no files listed", keeping last-good state alive.
func loadSpecDir(dir string) ([]specFile, []specError) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, []specError{{path: dir, err: err}}
	}
	var files []specFile
	var errs []specError
	for _, e := range entries {
		if e.IsDir() || !isSpecPath(e.Name()) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			errs = append(errs, specError{path: path, err: err})
			continue
		}
		spec, err := ParseSpec(data)
		if err != nil {
			errs = append(errs, specError{path: path, err: err})
			continue
		}
		canonical, err := spec.CanonicalJSON()
		if err != nil {
			errs = append(errs, specError{path: path, err: err})
			continue
		}
		files = append(files, specFile{path: path, spec: spec, hash: serve.SpecHash(canonical)})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].path < files[j].path })
	return files, errs
}

// cloneSpec deep-copies a spec so the controller's desired state and
// the registry's stored snapshot never alias each other's slices.
func cloneSpec(sp *serve.NetworkSpec) *serve.NetworkSpec {
	out := *sp
	out.Stations = append([]serve.SpecStation(nil), sp.Stations...)
	if sp.Powers != nil {
		out.Powers = append([]float64(nil), sp.Powers...)
	}
	if sp.Schedule != nil {
		pol := *sp.Schedule
		out.Schedule = &pol
	}
	return &out
}
