package udg

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

func TestNewValidation(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0)}
	if _, err := New(nil, 1, 1); err == nil {
		t.Error("empty stations must fail")
	}
	if _, err := New(pts, 0, 1); err == nil {
		t.Error("zero connectivity radius must fail")
	}
	if _, err := New(pts, 1, 0.5); err != ErrBadRange {
		t.Error("interference < connectivity must fail")
	}
	if _, err := New(pts, math.NaN(), 1); err == nil {
		t.Error("NaN radius must fail")
	}
}

func TestUDGHeardSingleTransmitter(t *testing.T) {
	m, err := NewUDG([]geom.Point{geom.Pt(0, 0)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Heard(0, geom.Pt(1.5, 0)) {
		t.Error("point within radius should hear")
	}
	if !m.Heard(0, geom.Pt(2, 0)) {
		t.Error("boundary point should hear (closed disk)")
	}
	if m.Heard(0, geom.Pt(2.1, 0)) {
		t.Error("point beyond radius should not hear")
	}
}

func TestUDGCollision(t *testing.T) {
	// Two transmitters 1 apart, radius 2: every point near both is
	// jammed.
	m, err := NewUDG([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Heard(0, geom.Pt(0.5, 0)) || m.Heard(1, geom.Pt(0.5, 0)) {
		t.Error("midpoint should be jammed by the other transmitter")
	}
	if _, ok := m.HeardBy(geom.Pt(0.5, 0)); ok {
		t.Error("HeardBy should report nothing at a jammed point")
	}
	// A point close to s0 but out of s1's range: s0 at (-1.9, 0),
	// dist(s1) = 2.9 > 2.
	if !m.Heard(0, geom.Pt(-1.9, 0)) {
		t.Error("point out of interferer range should hear s0")
	}
}

func TestHeardAmongSubset(t *testing.T) {
	m, err := NewUDG([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(10, 0)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Pt(0.5, 0)
	// All transmitting: jammed.
	if m.Heard(0, p) {
		t.Error("expected jam")
	}
	// Only s0 transmitting: heard.
	if !m.HeardAmong(0, p, map[int]bool{0: true}) {
		t.Error("sole transmitter should be heard")
	}
	// Silent station cannot be heard.
	if m.HeardAmong(1, p, map[int]bool{0: true}) {
		t.Error("silent station must not be heard")
	}
}

func TestQuasiUDGInterferenceWiderThanConnectivity(t *testing.T) {
	// Q-UDG: connectivity 1, interference 3. A receiver 0.5 from s0 and
	// 2.5 from s1 is connected to s0 but jammed by s1.
	m, err := New([]geom.Point{geom.Pt(0, 0), geom.Pt(3, 0)}, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Heard(0, geom.Pt(0.5, 0)) {
		t.Error("Q-UDG interference should jam")
	}
	// Same geometry under plain UDG radius 1: s1 is 2.5 away > 1, no jam.
	u, _ := NewUDG([]geom.Point{geom.Pt(0, 0), geom.Pt(3, 0)}, 1)
	if !u.Heard(0, geom.Pt(0.5, 0)) {
		t.Error("plain UDG should hear")
	}
}

func TestAdjacencyAndNeighbors(t *testing.T) {
	m, err := NewUDG([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(5, 0)}, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Adjacent(0, 1) || !m.Adjacent(1, 0) || m.Adjacent(0, 2) || m.Adjacent(2, 1) || m.Adjacent(1, 1) {
		t.Error("adjacency wrong")
	}
}

func TestCompareVerdicts(t *testing.T) {
	// Figure 2 scenario (cumulative interference): receiver adjacent to
	// s1 in UDG, but three distant stations jointly raise the SINR
	// denominator enough to kill reception.
	stations := []geom.Point{
		geom.Pt(0, 0), // s1: the candidate transmitter
		geom.Pt(5, 5), // s2..s4: outside UDG range of the receiver
		geom.Pt(5, -5),
		geom.Pt(-5, 5),
	}
	p := geom.Pt(3.2, 0)
	m, err := NewUDG(stations, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Heard(0, p) {
		t.Fatal("UDG should hear s1 (within range, interferers out of range)")
	}
	n, err := core.NewUniform(stations, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n.Heard(0, p) {
		t.Fatalf("SINR should reject due to cumulative interference (SINR=%v)", n.SINR(0, p))
	}
	v, err := Compare(m, n, p)
	if err != nil {
		t.Fatal(err)
	}
	if v != FalsePositive {
		t.Errorf("verdict = %v, want false-positive", v)
	}
}

func TestCompareFalseNegative(t *testing.T) {
	// Figure 4(A)/(B) scenario: two transmitters both in range of p
	// (UDG collision) but one much closer, so SINR still decodes it.
	stations := []geom.Point{geom.Pt(0, 0), geom.Pt(4, 0)}
	p := geom.Pt(0.5, 0)
	m, err := NewUDG(stations, 4.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.HeardBy(p); ok {
		t.Fatal("UDG should report collision")
	}
	n, err := core.NewUniform(stations, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Heard(0, p) {
		t.Fatalf("SINR should decode the near station (SINR=%v)", n.SINR(0, p))
	}
	v, err := Compare(m, n, p)
	if err != nil {
		t.Fatal(err)
	}
	if v != FalseNegative {
		t.Errorf("verdict = %v, want false-negative", v)
	}
}

func TestCompareAgreeAndErrors(t *testing.T) {
	stations := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}
	m, _ := NewUDG(stations, 2)
	n, _ := core.NewUniform(stations, 0, 2)
	v, err := Compare(m, n, geom.Pt(0.5, 0))
	if err != nil {
		t.Fatal(err)
	}
	if v != Agree {
		t.Errorf("verdict = %v, want agree", v)
	}
	// Station count mismatch errors.
	m2, _ := NewUDG([]geom.Point{geom.Pt(0, 0)}, 2)
	if _, err := Compare(m2, n, geom.Pt(0, 0)); err == nil {
		t.Error("station count mismatch must error")
	}
}

func TestVerdictString(t *testing.T) {
	for v, want := range map[Verdict]string{
		Agree: "agree", FalsePositive: "false-positive",
		FalseNegative: "false-negative", Mismatch: "mismatch",
	} {
		if v.String() != want {
			t.Errorf("%d.String() = %q", v, v.String())
		}
	}
	if Verdict(9).String() == "" {
		t.Error("unknown verdict should render")
	}
}

// TestDisagreementRate compares the models on a grid over a
// collision-heavy layout (every grid point is within the UDG radius of
// both stations) and checks that Compare reports disagreement there.
// False negatives must be among it: UDG jams everywhere, SINR decodes
// near each station.
func TestDisagreementRate(t *testing.T) {
	stations := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 0)}
	m, _ := NewUDG(stations, 4)
	n, _ := core.NewUniform(stations, 0, 2)
	const side = 30 // grid over the box [-1, 4] x [-1, 1]
	var counts [4]int
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			p := geom.Pt(-1+5*(float64(i)+0.5)/side, -1+2*(float64(j)+0.5)/side)
			v, err := Compare(m, n, p)
			if err != nil {
				t.Fatal(err)
			}
			counts[v]++
		}
	}
	if counts[Agree] == side*side {
		t.Error("expected some disagreement in the collision-heavy layout")
	}
	if counts[FalseNegative] == 0 {
		t.Errorf("expected false negatives, verdict counts %v", counts)
	}
}
