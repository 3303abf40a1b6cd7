// Package sched builds link schedules under the physical (SINR) and
// protocol interference models — the class of higher-layer problems
// the paper's introduction argues should be solved against the
// physical model rather than graph abstractions (its references [8],
// [12], [13], Moscibroda et al.). The SINR feasibility predicate is
// Equation (1) applied to a slot's concurrent senders.
//
// # Feasibility engines
//
// Both SINRProblem and ProtocolProblem answer slot feasibility through
// incremental slot engines (the Slot interface, minted by NewSlot).
// A slot maintains per-receiver cumulative interference, so a trial
// placement costs O(active) — and usually O(log n), because a kd-tree
// over the active senders rejects most trials from the nearest
// interferer alone — instead of the O(active²) full recheck of the
// naive oracle. The naive all-pairs oracles survive as
// SlotFeasibleScan; for slots built by pure adds the incremental SINR
// sums are accumulated in the scan's own term order, so the two paths
// agree bit-for-bit, a property the package's tests pin.
//
// # Schedulers
//
// Three schedulers share the engines (Kind, BuildSchedule): Greedy
// first-fit in a caller-chosen order, LengthClasses in the
// Moscibroda-Wattenhofer style (geometric length classes, each
// scheduled into private slots), and "repair" — greedy followed by
// Improve, a local-search descent that moves links from later slots
// into earlier ones. Repair also reconciles an existing schedule with
// a changed problem incrementally, which is how the serving layer
// keeps cached schedules alive across PATCH deltas instead of
// recomputing them.
//
// DeriveLinks derives a deterministic link per station from station
// geometry alone, so a server and its clients can agree on a link set
// without shipping it. Params holds a scheduling instance's knobs and
// their defaults, and NewInstance turns a network generation plus
// Params into its links, problem and order: the server builds every
// schedule through it, and clients rebuild it to check one.
package sched
