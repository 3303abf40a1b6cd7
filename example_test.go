package sinrdiag_test

import (
	"context"
	"fmt"

	sinrdiag "repro"
)

// ExampleNewUniform builds the uniform power network of the paper's
// theorems and inspects its parameters.
func ExampleNewUniform() {
	net, err := sinrdiag.NewUniform([]sinrdiag.Point{
		{X: 0, Y: 0}, {X: 3, Y: 1}, {X: -1, Y: 2},
	}, 0.01, 3) // noise N = 0.01, threshold beta = 3
	if err != nil {
		panic(err)
	}
	fmt.Println(net)
	fmt.Println("uniform:", net.IsUniform(), "alpha:", net.Alpha())
	// Output:
	// Network{n=3 uniform N=0.01 beta=3 alpha=2}
	// uniform: true alpha: 2
}

// ExampleNetwork_HeardBy evaluates the SINR reception rule directly:
// close to station 0 its signal dominates; between stations nobody
// clears the beta = 3 threshold.
func ExampleNetwork_HeardBy() {
	net, err := sinrdiag.NewUniform([]sinrdiag.Point{
		{X: 0, Y: 0}, {X: 3, Y: 1}, {X: -1, Y: 2},
	}, 0.01, 3)
	if err != nil {
		panic(err)
	}
	if i, ok := net.HeardBy(sinrdiag.Pt(0.4, 0.2)); ok {
		fmt.Println("heard:", i)
	}
	if _, ok := net.HeardBy(sinrdiag.Pt(1.5, 0.5)); !ok {
		fmt.Println("dead zone between stations")
	}
	// Output:
	// heard: 0
	// dead zone between stations
}

// ExampleLocatorResolver_ResolveBatch builds the Theorem 3
// point-location structure — fanning the per-station constructions
// over one worker per CPU — and answers a batch of queries in one
// sharded call into a caller-owned slice. Answers are identical to
// calling Resolve point-by-point.
func ExampleLocatorResolver_ResolveBatch() {
	net, err := sinrdiag.NewUniform([]sinrdiag.Point{
		{X: 0, Y: 0}, {X: 3, Y: 1}, {X: -1, Y: 2},
	}, 0.01, 3)
	if err != nil {
		panic(err)
	}
	r, err := sinrdiag.NewLocatorResolver(net, sinrdiag.WithEpsilon(0.1))
	if err != nil {
		panic(err)
	}
	queries := []sinrdiag.Point{
		{X: 0.1, Y: 0.1}, // deep inside station 0's zone
		{X: 3.1, Y: 1.1}, // deep inside station 1's zone
		{X: 1.5, Y: 0.5}, // between the zones
		{X: 25, Y: 25},   // far from everyone
	}
	answers := make([]sinrdiag.Location, len(queries))
	if err := r.ResolveBatch(context.Background(), queries, answers); err != nil {
		panic(err)
	}
	for i, answer := range answers {
		fmt.Printf("query %d: %v\n", i, answer.Kind)
	}
	// Output:
	// query 0: H+
	// query 1: H+
	// query 2: H-
	// query 3: H-
}

// ExampleNewResolver answers the same query through every backend of
// the pluggable Resolver API: the three SINR-exact backends agree
// point-for-point, while the graph-based UDG baseline follows its own
// reception model — here it reports a collision (another station sits
// inside its interference disk) where SINR still decodes station 0.
func ExampleNewResolver() {
	net, err := sinrdiag.NewUniform([]sinrdiag.Point{
		{X: 0, Y: 0}, {X: 3, Y: 1}, {X: -1, Y: 2},
	}, 0.01, 3)
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	p := sinrdiag.Pt(0.4, 0.2)
	for _, kind := range sinrdiag.ResolverKinds() {
		r, err := sinrdiag.NewResolver(kind, net,
			sinrdiag.WithEpsilon(0.1), sinrdiag.WithWorkers(1))
		if err != nil {
			panic(err)
		}
		answer := r.Resolve(ctx, p)
		fmt.Printf("%s: station %d (%v)\n", kind, sinrdiag.StationIndex(answer), answer.Kind)
	}
	// Output:
	// exact: station 0 (H+)
	// locator: station 0 (H+)
	// voronoi: station 0 (H+)
	// udg: station -1 (H-)
}

// ExampleNewDynamicNetwork mutates a live station set with deltas:
// each Apply produces a fresh immutable epoch snapshot, and snapshots
// held across later mutations keep answering from their own epoch's
// station set.
func ExampleNewDynamicNetwork() {
	net, err := sinrdiag.NewUniform([]sinrdiag.Point{
		{X: 0, Y: 0}, {X: 3, Y: 1}, {X: -1, Y: 2},
	}, 0.01, 3)
	if err != nil {
		panic(err)
	}
	// On a 3-station network one delta is already 1/3 churn — past the
	// default amortized-rebuild threshold — so raise it to keep this
	// tiny example on the incremental path (production-sized networks
	// stay incremental at the default).
	dyn, err := sinrdiag.NewDynamicNetwork(net, sinrdiag.WithRebuildFraction(1))
	if err != nil {
		panic(err)
	}
	before := dyn.Snapshot()

	// A new station arrives right next to the query point: it captures
	// the reception there from epoch 2 on.
	after, err := dyn.Apply(sinrdiag.DynamicDelta{
		Add: []sinrdiag.DynamicStation{{Pos: sinrdiag.Pt(0.5, 0.2)}},
	})
	if err != nil {
		panic(err)
	}

	p := sinrdiag.Pt(0.45, 0.2)
	i, _ := before.HeardBy(p)
	j, _ := after.HeardBy(p)
	fmt.Printf("epoch %d: station %d\n", before.Epoch(), i)
	fmt.Printf("epoch %d: station %d (%s apply, %d stations)\n",
		after.Epoch(), j, after.ApplyStats().Path, after.NumStations())
	// Output:
	// epoch 1: station 0
	// epoch 2: station 3 (incremental apply, 4 stations)
}
