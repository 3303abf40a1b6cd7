package geom

import (
	"math"
	"testing"
	"testing/quick"
)

// TestTransformIdentity checks that every constructor at its neutral
// parameter is the identity map.
func TestTransformIdentity(t *testing.T) {
	for _, tc := range []struct {
		name string
		id   Transform
	}{
		{"Translation(0)", Translation(Origin)},
		{"Rotation(0)", Rotation(0)},
		{"Scaling(1)", Scaling(1)},
		{"Similarity(0, 1, 0)", Similarity(0, 1, Origin)},
	} {
		for _, p := range []Point{Origin, Pt(1, 2), Pt(-3, 0.5)} {
			if got := tc.id.Apply(p); !ApproxEqual(got, p, 1e-15) {
				t.Errorf("%s applied to %v = %v", tc.name, p, got)
			}
		}
	}
}

func TestTranslation(t *testing.T) {
	tr := Translation(Pt(2, -1))
	if got := tr.Apply(Pt(1, 1)); !ApproxEqual(got, Pt(3, 0), 1e-15) {
		t.Errorf("got %v", got)
	}
}

func TestRotation(t *testing.T) {
	rot := Rotation(math.Pi / 2)
	if got := rot.Apply(Pt(1, 0)); !ApproxEqual(got, Pt(0, 1), 1e-12) {
		t.Errorf("rot90(1,0) = %v", got)
	}
	if got := rot.Apply(Pt(0, 1)); !ApproxEqual(got, Pt(-1, 0), 1e-12) {
		t.Errorf("rot90(0,1) = %v", got)
	}
}

func TestRotationAbout(t *testing.T) {
	rot := RotationAbout(Pt(1, 1), math.Pi)
	if got := rot.Apply(Pt(2, 1)); !ApproxEqual(got, Pt(0, 1), 1e-12) {
		t.Errorf("got %v", got)
	}
	// The center is a fixed point.
	if got := rot.Apply(Pt(1, 1)); !ApproxEqual(got, Pt(1, 1), 1e-12) {
		t.Errorf("center moved to %v", got)
	}
}

func TestScaling(t *testing.T) {
	sc := Scaling(3)
	if got := sc.Apply(Pt(1, -2)); !ApproxEqual(got, Pt(3, -6), 1e-15) {
		t.Errorf("got %v", got)
	}
	if got := sc.Scale(); !almostEqual(got, 3, 1e-15) {
		t.Errorf("Scale() = %v", got)
	}
}

func TestSimilarityPreservesDistanceRatios(t *testing.T) {
	f := Similarity(0.7, 2.5, Pt(3, -4))
	a, b, c := Pt(0, 0), Pt(1, 2), Pt(-3, 5)
	fa, fb, fc := f.Apply(a), f.Apply(b), f.Apply(c)
	// dist scales uniformly by sigma.
	if got, want := Dist(fa, fb), 2.5*Dist(a, b); !almostEqual(got, want, 1e-9) {
		t.Errorf("dist(fa,fb) = %v, want %v", got, want)
	}
	if got, want := Dist(fb, fc), 2.5*Dist(b, c); !almostEqual(got, want, 1e-9) {
		t.Errorf("dist(fb,fc) = %v, want %v", got, want)
	}
}

func TestComposeOrder(t *testing.T) {
	// t.Compose(u) must equal "apply u first, then t".
	rot := Rotation(math.Pi / 2)
	tr := Translation(Pt(1, 0))
	composed := tr.Compose(rot) // rotate then translate
	if got := composed.Apply(Pt(1, 0)); !ApproxEqual(got, Pt(1, 1), 1e-12) {
		t.Errorf("got %v, want (1,1)", got)
	}
	composed2 := rot.Compose(tr) // translate then rotate
	if got := composed2.Apply(Pt(1, 0)); !ApproxEqual(got, Pt(0, 2), 1e-12) {
		t.Errorf("got %v, want (0,2)", got)
	}
}

func TestApplyAll(t *testing.T) {
	tr := Translation(Pt(1, 1))
	in := []Point{Pt(0, 0), Pt(2, 3)}
	out := tr.ApplyAll(in)
	if len(out) != 2 || !ApproxEqual(out[0], Pt(1, 1), 0) || !ApproxEqual(out[1], Pt(3, 4), 0) {
		t.Errorf("out = %v", out)
	}
	// Input must be untouched.
	if in[0] != Pt(0, 0) {
		t.Error("input mutated")
	}
}

func TestTransformScalePropertyQuick(t *testing.T) {
	f := func(theta, rawSigma, dx, dy float64) bool {
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			return true
		}
		sigma := 0.1 + math.Mod(math.Abs(rawSigma), 10)
		if math.IsNaN(sigma) || math.IsNaN(dx) || math.IsNaN(dy) || math.IsInf(dx, 0) || math.IsInf(dy, 0) {
			return true
		}
		tr := Similarity(math.Mod(theta, math.Pi), sigma, Pt(math.Mod(dx, 100), math.Mod(dy, 100)))
		return almostEqual(tr.Scale(), sigma, 1e-9*(1+sigma))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
