package udg

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
)

// Common validation errors.
var (
	ErrBadRadius = errors.New("udg: radii must be positive")
	ErrBadRange  = errors.New("udg: interference radius must be >= connectivity radius")
)

// Model is a two-graph graph-based reception model over a fixed
// station set: a transmission from station i is received at point p
// iff dist(s_i, p) <= ConnRadius and no other *transmitting* station
// lies within InterfRadius of p. Setting ConnRadius == InterfRadius
// yields the classic UDG / protocol model; InterfRadius > ConnRadius
// yields the Quasi-UDG model of [Kuhn-Wattenhofer-Zollinger 2003].
type Model struct {
	stations     []geom.Point
	connRadius   float64
	interfRadius float64
}

// New returns a graph-based model with the given radii. It returns an
// error unless 0 < connRadius <= interfRadius.
func New(stations []geom.Point, connRadius, interfRadius float64) (*Model, error) {
	if len(stations) == 0 {
		return nil, errors.New("udg: need at least one station")
	}
	if connRadius <= 0 || interfRadius <= 0 || math.IsNaN(connRadius) || math.IsNaN(interfRadius) {
		return nil, ErrBadRadius
	}
	if interfRadius < connRadius {
		return nil, ErrBadRange
	}
	return &Model{
		stations:     append([]geom.Point(nil), stations...),
		connRadius:   connRadius,
		interfRadius: interfRadius,
	}, nil
}

// NewUDG returns the classic unit disk graph model with radius r
// (connectivity and interference coincide).
func NewUDG(stations []geom.Point, r float64) (*Model, error) {
	return New(stations, r, r)
}

// NumStations returns the number of stations.
func (m *Model) NumStations() int { return len(m.stations) }

// Station returns the location of station i.
func (m *Model) Station(i int) geom.Point { return m.stations[i] }

// ConnRadius returns the connectivity radius.
func (m *Model) ConnRadius() float64 { return m.connRadius }

// InterfRadius returns the interference radius.
func (m *Model) InterfRadius() float64 { return m.interfRadius }

// Heard reports whether the transmission of station i is received at
// point p under the graph rule, assuming every station transmits.
func (m *Model) Heard(i int, p geom.Point) bool {
	return m.HeardAmong(i, p, nil)
}

// HeardAmong reports reception of station i at p when only the
// stations in transmitting (by index) are active. A nil set means all
// stations transmit. Station i itself must be in the transmitting set.
func (m *Model) HeardAmong(i int, p geom.Point, transmitting map[int]bool) bool {
	if transmitting != nil && !transmitting[i] {
		return false
	}
	if geom.Dist(m.stations[i], p) > m.connRadius {
		return false
	}
	for j, s := range m.stations {
		if j == i {
			continue
		}
		if transmitting != nil && !transmitting[j] {
			continue
		}
		if geom.Dist(s, p) <= m.interfRadius {
			return false
		}
	}
	return true
}

// HeardBy returns the station heard at p (and true), or (0, false).
// Under the graph rule at most one station can be heard when the
// interference radius is at least the connectivity radius.
func (m *Model) HeardBy(p geom.Point) (int, bool) {
	for i := range m.stations {
		if m.Heard(i, p) {
			return i, true
		}
	}
	return 0, false
}

// Adjacent reports whether stations i and j are neighbors in the
// connectivity graph (dist <= ConnRadius).
func (m *Model) Adjacent(i, j int) bool {
	if i == j {
		return false
	}
	return geom.Dist(m.stations[i], m.stations[j]) <= m.connRadius
}

// Verdict classifies one UDG-vs-SINR comparison at a point.
type Verdict int

// Comparison outcomes.
const (
	Agree         Verdict = iota // same reception answer (incl. same station)
	FalsePositive                // UDG says heard, SINR says not
	FalseNegative                // UDG says not heard, SINR says heard
	Mismatch                     // both heard, but different stations
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Agree:
		return "agree"
	case FalsePositive:
		return "false-positive"
	case FalseNegative:
		return "false-negative"
	case Mismatch:
		return "mismatch"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Compare evaluates both models at p and classifies the disagreement.
// The station sets of the two models must match.
func Compare(m *Model, n *core.Network, p geom.Point) (Verdict, error) {
	if m.NumStations() != n.NumStations() {
		return Agree, fmt.Errorf("udg: model has %d stations, network has %d",
			m.NumStations(), n.NumStations())
	}
	gi, gok := m.HeardBy(p)
	si, sok := n.HeardBy(p)
	switch {
	case gok && !sok:
		return FalsePositive, nil
	case !gok && sok:
		return FalseNegative, nil
	case gok && sok && gi != si:
		return Mismatch, nil
	default:
		return Agree, nil
	}
}
