package sched

import (
	"cmp"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
)

// Model names the interference model a scheduling instance is checked
// under. Normalize reads "" as ModelSINR.
type Model string

const (
	ModelSINR     Model = "sinr"     // the physical model (SINRProblem)
	ModelProtocol Model = "protocol" // the UDG/protocol model (ProtocolProblem)
)

// Order names the order greedy and repair place links in; lenclass
// derives its own. Normalize reads "" as OrderShort.
type Order string

const (
	OrderShort Order = "short" // shortest links first
	OrderLong  Order = "long"  // longest links first
	OrderID    Order = "id"    // index order
)

// Params are the knobs of a scheduling instance beyond its links. Zero
// values mean defaults, which Normalize resolves: the SINR model and
// shortest-first order; LinkLen, the scale of the derived links, 1; Beta and Noise default to the
// network's (or the Channel's) values; the protocol model's
// connectivity radius Conn defaults to 1.5× LinkLen, which covers
// every derived link, and its interference radius Interf to 2× Conn.
type Params struct {
	Model   Model
	Order   Order
	LinkLen float64
	Beta    float64
	Noise   float64
	Conn    float64
	Interf  float64
}

// Normalize returns p with its defaults resolved and the knobs its
// model does not use zeroed (the radii under SINR, β and noise under
// protocol), so two Params that describe the same instance compare
// equal. β and noise stay 0 where they defer to the network. It
// rejects negative, NaN or infinite knobs, unknown models and orders,
// and an interference radius below the connectivity radius.
// Normalize is idempotent.
func (p Params) Normalize() (Params, error) {
	if p.LinkLen == 0 {
		p.LinkLen = 1
	}
	if !(p.LinkLen > 0) || math.IsInf(p.LinkLen, 1) {
		return p, fmt.Errorf("sched: link_len must be a positive finite number, got %g", p.LinkLen)
	}
	for _, v := range [...]float64{p.Beta, p.Noise, p.Conn, p.Interf} {
		if !(v >= 0) || math.IsInf(v, 1) {
			return p, errors.New("sched: beta, noise and radii must be non-negative finite numbers")
		}
	}
	p.Model, p.Order = cmp.Or(p.Model, ModelSINR), cmp.Or(p.Order, OrderShort)
	if p.Order != OrderShort && p.Order != OrderLong && p.Order != OrderID {
		return p, fmt.Errorf("sched: unknown order %q (want short, long or id)", p.Order)
	}
	switch p.Model {
	case ModelSINR:
		p.Conn, p.Interf = 0, 0
	case ModelProtocol:
		p.Beta, p.Noise = 0, 0
		if p.Conn == 0 {
			p.Conn = 1.5 * p.LinkLen
		}
		if p.Interf == 0 {
			p.Interf = 2 * p.Conn
		}
		if p.Interf < p.Conn {
			return p, fmt.Errorf("sched: interf_radius %g below conn_radius %g", p.Interf, p.Conn)
		}
	default:
		return p, fmt.Errorf("sched: unknown model %q (want sinr or protocol)", p.Model)
	}
	return p, nil
}

// Channel is the physical setting a SINR instance falls back on where
// Params leaves β and noise 0, plus the path-loss exponent (0 means 2).
type Channel struct {
	Beta, Noise, Alpha float64
}

// Problem is the feasibility oracle of an Instance: a *SINRProblem or
// a *ProtocolProblem.
type Problem interface {
	Incremental
	SlotFeasibleScan(active []int) bool
}

// Instance is one scheduling instance: the links, their feasibility
// problem under the model, and the order greedy and repair place them
// in (nil means index order).
type Instance struct {
	Links   []Link
	Problem Problem
	Order   []int
}

// NewInstance builds the scheduling instance of a network generation:
// one link per station, derived by DeriveLinks at p.LinkLen with the
// stations' powers, under p's model, with the network's β, noise and
// α wherever p defers to them. The server schedules a generation
// through it, and a client rebuilds the same instance through it to
// check a served schedule.
func NewInstance(net *core.Network, p Params) (*Instance, error) {
	p, err := p.Normalize()
	if err != nil {
		return nil, err
	}
	powers := make([]float64, net.NumStations())
	for i := range powers {
		powers[i] = net.Power(i)
	}
	links := DeriveLinks(net.Stations(), powers, p.LinkLen)
	return NewLinkInstance(links, p, Channel{Beta: net.Beta(), Noise: net.Noise(), Alpha: net.Alpha()})
}

// NewLinkInstance builds the instance of explicit links under p,
// normalizing p first and falling back on ch where p leaves β and
// noise 0. p.LinkLen scales nothing here; it only sets the protocol
// model's default radii.
func NewLinkInstance(links []Link, p Params, ch Channel) (*Instance, error) {
	p, err := p.Normalize()
	if err != nil {
		return nil, err
	}
	inst := &Instance{Links: links}
	if p.Model == ModelProtocol {
		if inst.Problem, err = NewProtocolProblem(links, p.Conn, p.Interf); err != nil {
			return nil, err
		}
	} else {
		sp, err := NewSINRProblem(links, cmp.Or(p.Noise, ch.Noise), cmp.Or(p.Beta, ch.Beta))
		if err != nil {
			return nil, err
		}
		if ch.Alpha > 0 {
			sp.Alpha = ch.Alpha
		}
		inst.Problem = sp
	}
	switch p.Order {
	case OrderShort:
		inst.Order = ByLength(links, true)
	case OrderLong:
		inst.Order = ByLength(links, false)
	}
	return inst, nil
}
