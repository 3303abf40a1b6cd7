package sched

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// TestParamsNormalize pins the one definition of a scheduling
// instance's defaults: the SINR model, shortest-first order, link
// scale 1, protocol radii 1.5× the scale and 2× the connectivity
// radius, and the knobs a model ignores zeroed.
func TestParamsNormalize(t *testing.T) {
	cases := []struct{ in, want Params }{
		{Params{}, Params{Model: ModelSINR, Order: OrderShort, LinkLen: 1}},
		{Params{Beta: 2, Noise: 0.5, Conn: 3, Interf: 4},
			Params{Model: ModelSINR, Order: OrderShort, LinkLen: 1, Beta: 2, Noise: 0.5}},
		{Params{Model: ModelProtocol, LinkLen: 2, Beta: 2, Noise: 1},
			Params{Model: ModelProtocol, Order: OrderShort, LinkLen: 2, Conn: 3, Interf: 6}},
		{Params{Model: ModelProtocol, Conn: 2},
			Params{Model: ModelProtocol, Order: OrderShort, LinkLen: 1, Conn: 2, Interf: 4}},
		{Params{Model: ModelProtocol, Order: OrderID, Interf: 1.5},
			Params{Model: ModelProtocol, Order: OrderID, LinkLen: 1, Conn: 1.5, Interf: 1.5}},
		{Params{Order: OrderLong, LinkLen: 0.25},
			Params{Model: ModelSINR, Order: OrderLong, LinkLen: 0.25}},
	}
	for _, tc := range cases {
		got, err := tc.in.Normalize()
		if err != nil || got != tc.want {
			t.Errorf("%+v.Normalize() = %+v, %v; want %+v", tc.in, got, err, tc.want)
			continue
		}
		if again, err := got.Normalize(); err != nil || again != got {
			t.Errorf("Normalize is not idempotent on %+v: %+v, %v", got, again, err)
		}
	}
	for _, bad := range []Params{
		{LinkLen: -1}, {LinkLen: math.Inf(1)}, {LinkLen: math.NaN()},
		{Beta: -1}, {Noise: math.NaN()}, {Conn: math.Inf(1)}, {Interf: -2},
		{Model: ModelProtocol, Conn: 2, Interf: 1},
		{Model: "graph"}, {Order: "random"},
	} {
		if got, err := bad.Normalize(); err == nil {
			t.Errorf("%+v.Normalize() = %+v, want an error", bad, got)
		}
	}
}

// TestNewInstanceDerivesTheGeneration: the instance of a network holds
// its derived links, falls back on the network's β, noise and α
// wherever the parameters defer, and orders the links as asked.
func TestNewInstanceDerivesTheGeneration(t *testing.T) {
	stations := []geom.Point{geom.Pt(0, 0), geom.Pt(4, 1), geom.Pt(-3, 5), geom.Pt(6, -4)}
	powers := []float64{1, 2, 0.5, 1.5}
	net, err := core.NewNetwork(stations, 0.01, 3, core.WithAlpha(3), core.WithPowers(powers))
	if err != nil {
		t.Fatal(err)
	}

	inst, err := NewInstance(net, Params{})
	if err != nil {
		t.Fatal(err)
	}
	links := DeriveLinks(stations, powers, 1)
	sp, ok := inst.Problem.(*SINRProblem)
	if !ok || sp.Beta != 3 || sp.Noise != 0.01 || sp.Alpha != 3 {
		t.Fatalf("default instance problem = %+v, want the network's beta 3, noise 0.01, alpha 3", inst.Problem)
	}
	if !reflect.DeepEqual(inst.Links, links) || !reflect.DeepEqual(inst.Order, ByLength(links, true)) {
		t.Fatalf("default instance: links %v order %v", inst.Links, inst.Order)
	}

	inst, err = NewInstance(net, Params{Beta: 1.5, Noise: 0.1, LinkLen: 2, Order: OrderID})
	if err != nil {
		t.Fatal(err)
	}
	sp = inst.Problem.(*SINRProblem)
	if sp.Beta != 1.5 || sp.Noise != 0.1 || sp.Alpha != 3 || inst.Order != nil ||
		!reflect.DeepEqual(inst.Links, DeriveLinks(stations, powers, 2)) {
		t.Fatalf("override instance: %+v, order %v", sp, inst.Order)
	}

	inst, err = NewInstance(net, Params{Model: ModelProtocol, Order: OrderLong})
	if err != nil {
		t.Fatal(err)
	}
	pp, ok := inst.Problem.(*ProtocolProblem)
	if !ok || pp.ConnRadius != 1.5 || pp.InterfRadius != 3 || !reflect.DeepEqual(inst.Order, ByLength(links, false)) {
		t.Fatalf("protocol instance = %+v, order %v", inst.Problem, inst.Order)
	}

	if _, err := NewInstance(net, Params{Model: "graph"}); err == nil {
		t.Fatal("unknown model accepted")
	}
}
