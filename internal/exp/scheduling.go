package exp

import (
	"repro/internal/geom"
	"repro/internal/sched"
	"repro/internal/workload"
)

// randomLinks draws n links with the given length range inside a box.
func randomLinks(gen *workload.Generator, n int, box geom.Box, minLen, maxLen float64) []sched.Link {
	links := make([]sched.Link, n)
	senders := gen.UniformInBox(n, box)
	for i, s := range senders {
		length := minLen + gen.Float64()*(maxLen-minLen)
		theta := gen.Float64() * 2 * 3.141592653589793
		links[i] = sched.Link{Sender: s, Receiver: geom.PolarPoint(s, length, theta)}
	}
	return links
}

// Scheduling runs E14: greedy link scheduling under the SINR model
// versus the protocol model on identical instances — the application
// area (transmission scheduling) the paper's introduction uses to
// motivate algorithmically usable SINR results, and where references
// [8], [12], [13] show graph models mispredict capacity.
func Scheduling(trials int) (*Table, error) {
	t := &Table{
		ID:         "E14",
		Title:      "Application: greedy link scheduling, SINR vs protocol model",
		PaperClaim: "graph-based models serialize links the physical model can pack together (Sec. 1.1, refs [8,12,13])",
		Headers: []string{
			"n links", "density", "SINR slots", "protocol slots", "SINR shorter",
		},
	}
	t.Pass = true
	type cell struct {
		n    int
		side float64
		name string
	}
	cells := []cell{
		{20, 30, "sparse"},
		{20, 12, "dense"},
		{60, 40, "sparse"},
		{60, 16, "dense"},
	}
	for _, c := range cells {
		sinrTotal, protoTotal, shorter := 0, 0, 0
		for trial := 0; trial < trials; trial++ {
			gen := workload.NewGenerator(int64(c.n*1000) + int64(c.side*10) + int64(trial))
			box := geom.NewBox(geom.Pt(0, 0), geom.Pt(c.side, c.side))
			links := randomLinks(gen, c.n, box, 0.5, 1.5)

			// Slot counts under the SINR and the protocol model, on the
			// same links in the same shortest-first order.
			var slots [2]int
			for m, model := range []sched.Model{sched.ModelSINR, sched.ModelProtocol} {
				inst, err := sched.NewLinkInstance(links, sched.Params{Model: model}, sched.Channel{Beta: 2, Noise: 0.0001})
				if err != nil {
					return nil, err
				}
				s, err := sched.Greedy(inst.Problem, inst.Order)
				if err != nil {
					return nil, err
				}
				if err := s.Validate(inst.Problem); err != nil {
					return nil, err
				}
				slots[m] = s.NumSlots()
			}
			sinrTotal += slots[0]
			protoTotal += slots[1]
			if slots[0] < slots[1] {
				shorter++
			} else if slots[0] > slots[1] {
				shorter--
			}
		}
		t.AddRowf(c.n, c.name, sinrTotal, protoTotal, shorter)
		// Shape: summed over trials, SINR schedules must not be longer.
		if sinrTotal > protoTotal {
			t.Pass = false
		}
	}
	t.Note("slots summed over %d trials per row; 'SINR shorter' counts trials won minus lost", trials)
	return t, nil
}
