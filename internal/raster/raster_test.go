package raster

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/udg"
)

func testNetwork(t *testing.T) *core.Network {
	t.Helper()
	n, err := core.NewUniform([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRenderValidation(t *testing.T) {
	n := testNetwork(t)
	box := geom.NewBox(geom.Pt(-2, -2), geom.Pt(2, 2))
	if _, err := Render(n, box, 1, 10); err == nil {
		t.Error("width < 2 must fail")
	}
	if _, err := Render(n, geom.Box{}, 10, 10); err == nil {
		t.Error("degenerate box must fail")
	}
}

func TestRenderApolloniusAreas(t *testing.T) {
	n := testNetwork(t)
	box := geom.NewBox(geom.Pt(-2, -2), geom.Pt(2, 2))
	rm, err := Render(n, box, 200, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Zone of s0 is the Apollonius disk radius 2/3 -> area 4pi/9.
	got := rm.StationArea(0)
	want := 4 * math.Pi / 9
	if math.Abs(got-want) > 0.05*want {
		t.Errorf("area(H_0) = %v, want ~%v", got, want)
	}
	// Zone of s1 is symmetric (mirror image): same area.
	if got1 := rm.StationArea(1); math.Abs(got1-got) > 0.05*want {
		t.Errorf("area(H_1) = %v, want ~%v", got1, got)
	}
	if rm.PixelArea() <= 0 {
		t.Error("pixel area must be positive")
	}
	if covered := got + rm.StationArea(1); covered >= box.Area() {
		t.Errorf("zones cover %v of the %v box: no unheard pixel", covered, box.Area())
	}
}

func TestPixelCenterRoundTrip(t *testing.T) {
	n := testNetwork(t)
	box := geom.NewBox(geom.Pt(-1, -1), geom.Pt(1, 1))
	rm, err := Render(n, box, 50, 50)
	if err != nil {
		t.Fatal(err)
	}
	// The rendered value at each pixel equals a direct model query at
	// the pixel center: pixels are 0.04 wide, column 0 starts at
	// x = -1 and row 0 at the top edge y = 1.
	for _, pc := range [][2]int{{0, 0}, {25, 25}, {49, 49}, {10, 40}} {
		p := geom.Pt(-1+0.04*(float64(pc[0])+0.5), 1-0.04*(float64(pc[1])+0.5))
		want := NoStation
		if i, ok := n.HeardBy(p); ok {
			want = i
		}
		if got := rm.At(pc[0], pc[1]); got != want {
			t.Errorf("pixel %v: map says %d, model says %d", pc, got, want)
		}
	}
}

func TestASCII(t *testing.T) {
	n := testNetwork(t)
	box := geom.NewBox(geom.Pt(-2, -2), geom.Pt(2, 2))
	rm, err := Render(n, box, 40, 20)
	if err != nil {
		t.Fatal(err)
	}
	art := rm.ASCII()
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 20 {
		t.Fatalf("got %d lines", len(lines))
	}
	for _, l := range lines {
		if len(l) != 40 {
			t.Fatalf("line length %d", len(l))
		}
	}
	if !strings.Contains(art, "0") || !strings.Contains(art, "1") {
		t.Error("expected both zones in ASCII output")
	}
	if !strings.Contains(art, "*") {
		t.Error("expected station markers")
	}
	if !strings.Contains(art, ".") {
		t.Error("expected empty space")
	}
}

func TestWritePPM(t *testing.T) {
	n := testNetwork(t)
	box := geom.NewBox(geom.Pt(-2, -2), geom.Pt(2, 2))
	rm, err := Render(n, box, 30, 20)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rm.WritePPM(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if !bytes.HasPrefix(data, []byte("P6\n30 20\n255\n")) {
		t.Errorf("header = %q", data[:13])
	}
	wantLen := len("P6\n30 20\n255\n") + 30*20*3
	if len(data) != wantLen {
		t.Errorf("len = %d, want %d", len(data), wantLen)
	}
}

func TestRenderUDGModel(t *testing.T) {
	// The Model interface accepts the UDG model too.
	m, err := udg.NewUDG([]geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	box := geom.NewBox(geom.Pt(-3, -3), geom.Pt(13, 3))
	rm, err := Render(m, box, 160, 60)
	if err != nil {
		t.Fatal(err)
	}
	// Each disk has area ~4pi (pixels are 0.1x0.1).
	want := 4 * math.Pi
	for i := 0; i < 2; i++ {
		if got := rm.StationArea(i); math.Abs(got-want) > 0.1*want {
			t.Errorf("area(%d) = %v, want ~%v", i, got, want)
		}
	}
}

func TestDiff(t *testing.T) {
	stations := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 0)}
	box := geom.NewBox(geom.Pt(-2, -2), geom.Pt(5, 2))
	n, _ := core.NewUniform(stations, 0, 2)
	m, _ := udg.NewUDG(stations, 4)
	rmN, err := Render(n, box, 70, 40)
	if err != nil {
		t.Fatal(err)
	}
	rmM, err := Render(m, box, 70, 40)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Diff(rmM, rmN)
	if err != nil {
		t.Fatal(err)
	}
	if d.Total != 70*40 {
		t.Errorf("total = %d", d.Total)
	}
	if d.Agree+d.OnlyA+d.OnlyB+d.BothMismatch != d.Total {
		t.Error("diff counts do not partition")
	}
	// UDG radius 4 means both stations jam each other everywhere ->
	// SINR-only pixels exist (false negatives of UDG).
	if d.OnlyB == 0 {
		t.Error("expected SINR-only pixels")
	}
	if d.DisagreeFraction() <= 0 {
		t.Error("expected disagreement")
	}
	// Geometry mismatch errors.
	rmSmall, _ := Render(n, box, 10, 10)
	if _, err := Diff(rmN, rmSmall); err == nil {
		t.Error("geometry mismatch must error")
	}
}

func TestDiffStatsZero(t *testing.T) {
	if got := (DiffStats{}).DisagreeFraction(); got != 0 {
		t.Errorf("empty diff fraction = %v", got)
	}
}
