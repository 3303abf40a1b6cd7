package reconcile

import (
	"testing"

	"repro/internal/serve"
)

// TestParseSpecFormatEquivalence pins every JSON layout of one network
// to one canonical form: key order, whitespace, number spelling, an
// explicit default power and the deprecated parallel powers array must
// all normalize to identical canonical bytes and hash, so rewriting a
// spec file's layout never looks like a change to the reconciler.
func TestParseSpecFormatEquivalence(t *testing.T) {
	docs := map[string]string{
		"compact": `{"name":"paper","stations":[{"x":0,"y":0},{"x":3,"y":4,"power":2}],"noise":0.2,"beta":1.5,"resolver":"exact","schedule":{"scheduler":"greedy","order":"id"}}`,
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
		"powers array": `{"name":"paper","stations":[{"x":0,"y":0},{"x":3,"y":4}],"powers":[1,2],"noise":0.2,"beta":1.5,"resolver":"exact","schedule":{"scheduler":"greedy","order":"id"}}`,
	}
	want, err := ParseSpec([]byte(docs["compact"]))
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
	if _, err := ParseSpec([]byte(`{"name":"x","stations":[],"noise":0,"beta":1,"typo_field":3}`)); err == nil {
		t.Fatal("unknown JSON field accepted")
	}
	if _, err := ParseSpec([]byte("name: x\nstations: []\nnoise: 0\nbeta: 1\n")); err == nil {
		t.Fatal("YAML document accepted")
	}
	if _, err := ParseSpec([]byte("   \n")); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := ParseSpec([]byte(`{"name":"x"} {"name":"y"}`)); err == nil {
		t.Fatal("trailing JSON document accepted")
	}
}
