// Command sinrsched schedules a random set of wireless links under
// both the SINR model and the UDG/protocol model and prints the
// schedules side by side — the application the paper's introduction
// motivates (transmission scheduling against the physical model).
//
// Usage:
//
//	sinrsched [-links 40] [-side 18] [-beta 2] [-seed 1]
//	          [-sched greedy|lenclass|repair] [-order short|long|id]
//
// -sched picks the scheduler: greedy first-fit (the default), the
// length-class scheduler (links bucketed by log2 of their length,
// classes scheduled into disjoint slots), or greedy followed by the
// local-search improver (repair). Both models run on the same link
// set and every schedule is re-validated before printing, so a
// non-zero exit means a scheduler bug, not an unlucky instance.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/geom"
	"repro/internal/sched"
	"repro/internal/workload"
)

func main() {
	nLinks := flag.Int("links", 40, "number of links")
	side := flag.Float64("side", 18, "deployment square side")
	beta := flag.Float64("beta", 2, "SINR threshold")
	seed := flag.Int64("seed", 1, "random seed")
	kind := flag.String("sched", "greedy", "scheduler: greedy|lenclass|repair")
	order := flag.String("order", "short", "link order for greedy and repair: short|long|id")
	flag.Parse()

	if err := run(os.Stdout, *nLinks, *side, *beta, *seed, *kind, *order); err != nil {
		fmt.Fprintln(os.Stderr, "sinrsched:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, nLinks int, side, beta float64, seed int64, kindName, orderName string) error {
	kind, err := sched.ParseKind(kindName)
	if err != nil {
		return err
	}
	gen := workload.NewGenerator(seed)
	box := geom.NewBox(geom.Pt(0, 0), geom.Pt(side, side))
	senders := gen.UniformInBox(nLinks, box)
	links := make([]sched.Link, nLinks)
	for i, s := range senders {
		links[i] = sched.Link{
			Sender:   s,
			Receiver: geom.PolarPoint(s, 0.5+gen.Float64(), gen.Float64()*6.283185307),
		}
	}

	// Both models run on the same links in the same order.
	var built [2]*sched.Schedule
	for m, model := range []sched.Model{sched.ModelSINR, sched.ModelProtocol} {
		inst, err := sched.NewLinkInstance(links, sched.Params{Model: model, Order: sched.Order(orderName)}, sched.Channel{Beta: beta, Noise: 0.0001})
		if err != nil {
			return err
		}
		s, err := sched.BuildSchedule(kind, inst.Problem, inst.Order)
		if err != nil {
			return err
		}
		if err := s.Validate(inst.Problem); err != nil {
			return err
		}
		built[m] = s
	}

	fmt.Fprintf(w, "%d links, %gx%g field, beta=%g, sched=%s, order=%s\n",
		nLinks, side, side, beta, kind, orderName)
	for m, label := range [...]string{"SINR model    ", "protocol model"} {
		fmt.Fprintf(w, "%s: %d slots\n", label, built[m].NumSlots())
		for i, slot := range built[m].Slots {
			fmt.Fprintf(w, "  slot %2d: %d links\n", i, len(slot))
		}
	}
	return nil
}
