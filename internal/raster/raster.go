package raster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/geom"
	"repro/internal/par"
)

// Model is any reception model that can say which station (if any) is
// heard at a point. core.Network, core.Locator and udg.Model all
// satisfy it.
type Model interface {
	NumStations() int
	HeardBy(p geom.Point) (int, bool)
}

// NoStation marks pixels where no station is heard.
const NoStation = -1

// Options tunes rendering.
type Options struct {
	// Workers is the number of goroutines pixel rows are sharded
	// over. Zero means one per schedulable CPU; one forces the serial
	// render. Every setting produces identical pixels.
	Workers int
}

// ReceptionMap is a rasterized reception diagram: for every pixel the
// index of the heard station, or NoStation.
type ReceptionMap struct {
	Box    geom.Box
	Width  int
	Height int
	// Pixels holds station indices row-major, row 0 at the box top
	// (maximal Y) so ASCII output reads like the paper's figures.
	Pixels []int
	// Stations are echoed station locations for overlay rendering.
	Stations []geom.Point
}

// Render samples the model at pixel centers over box, sharding pixel
// rows over one worker per schedulable CPU (use RenderOpts to pick the
// worker count). Width and height must be at least 2.
func Render(m Model, box geom.Box, width, height int) (*ReceptionMap, error) {
	return RenderOpts(m, box, width, height, Options{})
}

// RenderOpts is Render with explicit options. Rows are independent, so
// any worker count produces identical pixels.
func RenderOpts(m Model, box geom.Box, width, height int, opt Options) (*ReceptionMap, error) {
	if width < 2 || height < 2 {
		return nil, errors.New("raster: need at least 2x2 pixels")
	}
	if box.Area() <= 0 {
		return nil, errors.New("raster: box has no area")
	}
	rm := &ReceptionMap{
		Box:    box,
		Width:  width,
		Height: height,
		Pixels: make([]int, width*height),
	}
	type staccess interface{ Station(int) geom.Point }
	if sa, ok := m.(staccess); ok {
		for i := 0; i < m.NumStations(); i++ {
			rm.Stations = append(rm.Stations, sa.Station(i))
		}
	}
	renderRows := func(rowLo, rowHi int) {
		for row := rowLo; row < rowHi; row++ {
			y := box.Max.Y - (float64(row)+0.5)*box.Height()/float64(height)
			dst := rm.Pixels[row*width : (row+1)*width]
			for col := 0; col < width; col++ {
				x := box.Min.X + (float64(col)+0.5)*box.Width()/float64(width)
				idx := NoStation
				if i, ok := m.HeardBy(geom.Pt(x, y)); ok {
					idx = i
				}
				dst[col] = idx
			}
		}
	}

	par.Chunks(height, opt.Workers, renderRows)
	return rm, nil
}

// At returns the station index at pixel (col, row), or NoStation.
func (rm *ReceptionMap) At(col, row int) int {
	return rm.Pixels[row*rm.Width+col]
}

// PixelArea returns the plane area represented by one pixel.
func (rm *ReceptionMap) PixelArea() float64 {
	return rm.Box.Area() / float64(rm.Width*rm.Height)
}

// StationArea estimates area(H_i) as (pixel count) * (pixel area).
func (rm *ReceptionMap) StationArea(i int) float64 {
	count := 0
	for _, v := range rm.Pixels {
		if v == i {
			count++
		}
	}
	return float64(count) * rm.PixelArea()
}

// zoneGlyphs are the characters used for stations 0.. in ASCII output.
const zoneGlyphs = "0123456789abcdefghijklmnopqrstuvwxyz"

// ASCII renders the map as text: '.' for no reception, one glyph per
// station zone, '*' overlaid at station pixels.
func (rm *ReceptionMap) ASCII() string {
	var b strings.Builder
	b.Grow((rm.Width + 1) * rm.Height)
	stationPixel := make(map[[2]int]bool, len(rm.Stations))
	for _, s := range rm.Stations {
		col := int((s.X - rm.Box.Min.X) / rm.Box.Width() * float64(rm.Width))
		row := int((rm.Box.Max.Y - s.Y) / rm.Box.Height() * float64(rm.Height))
		if col >= 0 && col < rm.Width && row >= 0 && row < rm.Height {
			stationPixel[[2]int{col, row}] = true
		}
	}
	for row := 0; row < rm.Height; row++ {
		for col := 0; col < rm.Width; col++ {
			if stationPixel[[2]int{col, row}] {
				b.WriteByte('*')
				continue
			}
			v := rm.At(col, row)
			switch {
			case v == NoStation:
				b.WriteByte('.')
			case v < len(zoneGlyphs):
				b.WriteByte(zoneGlyphs[v])
			default:
				b.WriteByte('#')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// palette returns a visually distinct RGB color for station i.
func palette(i int) [3]byte {
	colors := [][3]byte{
		{230, 60, 60}, {60, 160, 230}, {90, 200, 90}, {230, 180, 50},
		{180, 90, 220}, {60, 210, 200}, {240, 120, 180}, {150, 150, 60},
		{100, 100, 240}, {240, 140, 60},
	}
	return colors[i%len(colors)]
}

// WritePPM writes the map as a binary PPM (P6) image: white background,
// one palette color per zone, black dots at station pixels.
func (rm *ReceptionMap) WritePPM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", rm.Width, rm.Height); err != nil {
		return err
	}
	stationPixel := make(map[[2]int]bool, len(rm.Stations))
	for _, s := range rm.Stations {
		col := int((s.X - rm.Box.Min.X) / rm.Box.Width() * float64(rm.Width))
		row := int((rm.Box.Max.Y - s.Y) / rm.Box.Height() * float64(rm.Height))
		for dc := -1; dc <= 1; dc++ {
			for dr := -1; dr <= 1; dr++ {
				stationPixel[[2]int{col + dc, row + dr}] = true
			}
		}
	}
	buf := make([]byte, 0, rm.Width*3)
	for row := 0; row < rm.Height; row++ {
		buf = buf[:0]
		for col := 0; col < rm.Width; col++ {
			var rgb [3]byte
			switch {
			case stationPixel[[2]int{col, row}]:
				rgb = [3]byte{0, 0, 0}
			case rm.At(col, row) == NoStation:
				rgb = [3]byte{255, 255, 255}
			default:
				rgb = palette(rm.At(col, row))
			}
			buf = append(buf, rgb[0], rgb[1], rgb[2])
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DiffStats summarizes a pixelwise comparison of two maps.
type DiffStats struct {
	Total        int // pixels compared
	Agree        int // same answer (same station or both silent)
	OnlyA        int // A hears someone, B hears nobody
	OnlyB        int // B hears someone, A hears nobody
	BothMismatch int // both hear, different stations
}

// DisagreeFraction returns the fraction of pixels with any difference.
func (d DiffStats) DisagreeFraction() float64 {
	if d.Total == 0 {
		return 0
	}
	return float64(d.Total-d.Agree) / float64(d.Total)
}

// Diff compares two maps of identical geometry pixelwise.
func Diff(a, b *ReceptionMap) (DiffStats, error) {
	if a.Width != b.Width || a.Height != b.Height || a.Box != b.Box {
		return DiffStats{}, errors.New("raster: maps have different geometry")
	}
	var d DiffStats
	d.Total = len(a.Pixels)
	for i := range a.Pixels {
		va, vb := a.Pixels[i], b.Pixels[i]
		switch {
		case va == vb:
			d.Agree++
		case va != NoStation && vb == NoStation:
			d.OnlyA++
		case va == NoStation && vb != NoStation:
			d.OnlyB++
		default:
			d.BothMismatch++
		}
	}
	return d, nil
}
