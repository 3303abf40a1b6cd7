package reconcile

import (
	"bytes"
	"testing"

	"repro/internal/serve"
)

// compactSpec is one network written compactly.
const compactSpec = `{"name":"paper","stations":[{"x":0,"y":0},{"x":3,"y":4,"power":2}],"noise":0.2,"beta":1.5,"resolver":"exact","schedule":{"scheduler":"greedy","order":"id"}}`

// equivalentSpecs are layouts of compactSpec's network: key order,
// whitespace (trailing whitespace included), number spelling, an
// explicit default power and the deprecated parallel powers array.
var equivalentSpecs = map[string]string{
	"compact": compactSpec,
	"reordered": `{
  "schedule": {"order": "id", "scheduler": "greedy"},
  "resolver": "exact",
  "beta": 15e-1,
  "noise": 2e-1,
  "stations": [
    {"y": 0, "x": 0, "power": 1},
    {"power": 2.0, "y": 4, "x": 3}
  ],
  "name": "paper"
}`,
	"powers array":        `{"name":"paper","stations":[{"x":0,"y":0},{"x":3,"y":4}],"powers":[1,2],"noise":0.2,"beta":1.5,"resolver":"exact","schedule":{"scheduler":"greedy","order":"id"}}`,
	"trailing whitespace": compactSpec + " \n\t\n",
}

// rejectedSpecs are documents ParseSpec must refuse. The trailing
// closers are regression cases: a trailing-content check through
// json.Decoder.More reads "}" and "]" as the end of an enclosing value
// that is not there, and accepts them.
var rejectedSpecs = map[string]string{
	"unknown JSON field":     `{"name":"x","stations":[],"noise":0,"beta":1,"typo_field":3}`,
	"YAML document":          "name: x\nstations: []\nnoise: 0\nbeta: 1\n",
	"empty spec":             "   \n",
	"trailing JSON document": `{"name":"x"} {"name":"y"}`,
	"trailing }":             compactSpec + "}",
	"trailing ]":             compactSpec + "]",
	"trailing }}":            compactSpec + "}}",
	"trailing text":          compactSpec + " x",
	"trailing {}":            compactSpec + "{}",
}

// TestParseSpecFormatEquivalence pins every JSON layout of one network
// to one canonical form: every layout in equivalentSpecs must
// normalize to identical canonical bytes and hash, so rewriting a spec
// file's layout never looks like a change to the reconciler.
func TestParseSpecFormatEquivalence(t *testing.T) {
	docs := equivalentSpecs
	want, err := ParseSpec([]byte(compactSpec))
	if err != nil {
		t.Fatalf("ParseSpec(compact): %v", err)
	}
	cw, err := want.CanonicalJSON()
	if err != nil {
		t.Fatalf("CanonicalJSON(compact): %v", err)
	}
	for name, doc := range docs {
		got, err := ParseSpec([]byte(doc))
		if err != nil {
			t.Fatalf("ParseSpec(%s): %v", name, err)
		}
		cg, err := got.CanonicalJSON()
		if err != nil {
			t.Fatalf("CanonicalJSON(%s): %v", name, err)
		}
		if string(cg) != string(cw) {
			t.Fatalf("canonical forms differ:\n %s %s\n compact %s", name, cg, cw)
		}
		if serve.SpecHash(cg) != serve.SpecHash(cw) {
			t.Fatalf("%s: hashes differ for equivalent specs", name)
		}
	}
}

func TestParseSpecStrict(t *testing.T) {
	for name, doc := range rejectedSpecs {
		if _, err := ParseSpec([]byte(doc)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// FuzzParseNetworkSpec feeds arbitrary documents to ParseSpec, the
// decoder behind the facade's ParseNetworkSpec. It must never panic,
// and every spec it accepts that normalizes must round-trip: its
// canonical form parses again to the same canonical bytes and hash.
func FuzzParseNetworkSpec(f *testing.F) {
	for _, doc := range equivalentSpecs {
		f.Add([]byte(doc))
	}
	for _, doc := range rejectedSpecs {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		canonical, err := spec.CanonicalJSON()
		if err != nil {
			return // decodes but fails validation, on every path alike
		}
		again, err := ParseSpec(canonical)
		if err != nil {
			t.Fatalf("canonical form %s does not parse: %v", canonical, err)
		}
		recanonical, err := again.CanonicalJSON()
		if err != nil {
			t.Fatalf("canonical form %s does not normalize: %v", canonical, err)
		}
		if !bytes.Equal(canonical, recanonical) || serve.SpecHash(canonical) != serve.SpecHash(recanonical) {
			t.Fatalf("canonical form is not stable:\n first %s\nsecond %s", canonical, recanonical)
		}
	})
}
