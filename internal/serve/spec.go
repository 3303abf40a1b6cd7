package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/resolve"
	"repro/internal/trace"
)

// The declarative half of the v1 API: NetworkSpec is the one canonical
// description of a network, consumed identically by POST /v1/networks,
// by the reconcile controller's spec files, and read back byte-stably
// from GET /v1/networks/{name}. The server stores the canonical
// serialization (and its hash) with every generation, so "is the live
// network what this spec describes" is a string compare, not a deep
// walk — which is exactly what a polling differ needs.

// SpecStation is one station of a NetworkSpec. A zero (or omitted)
// Power means the uniform default 1.
type SpecStation struct {
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Power float64 `json:"power,omitempty"`
}

// SchedulePolicy is a network's declared scheduling defaults: requests
// to POST /v1/networks/{name}/schedule that omit a knob inherit it
// from here before the server's own defaults apply. All fields are
// optional; the zero policy is normalized away entirely.
type SchedulePolicy struct {
	Scheduler string  `json:"scheduler,omitempty"`
	Model     string  `json:"model,omitempty"`
	Order     string  `json:"order,omitempty"`
	LinkLen   float64 `json:"link_len,omitempty"`
}

// NetworkSpec is the canonical declarative description of one network:
// the POST /v1/networks body, the reconcile controller's file format,
// and the GET /v1/networks/{name} readback. Resolver sets the
// network's default backend ("exact", "locator", "voronoi", "udg" or
// "dynamic"; empty means "locator") and Radius its default UDG
// connectivity radius (0 means derived via resolve.DefaultUDGRadius).
//
// Powers is the deprecated pre-spec wire shape (one parallel array
// instead of per-station fields); Normalize folds it into the
// per-station Power fields, so old clients keep working and the
// canonical form has a single source of truth.
type NetworkSpec struct {
	Name     string          `json:"name"`
	Stations []SpecStation   `json:"stations"`
	Noise    float64         `json:"noise"`
	Beta     float64         `json:"beta"`
	Powers   []float64       `json:"powers,omitempty"` // Deprecated: use SpecStation.Power.
	Alpha    float64         `json:"alpha,omitempty"`
	Resolver string          `json:"resolver,omitempty"`
	Radius   float64         `json:"radius,omitempty"`
	Schedule *SchedulePolicy `json:"schedule,omitempty"`
}

// DecodeSpec reads one NetworkSpec document from r, strictly: unknown
// fields are errors, so a typoed key fails loudly instead of silently
// describing a different network, and the document must be all of r
// (trailing whitespace aside). POST /v1/networks and the reconcile
// controller's spec files both decode through it, so one document
// means one network on either path.
func DecodeSpec(r io.Reader) (*NetworkSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec NetworkSpec
	if err := decodeDocument(dec, &spec); err != nil {
		return nil, err
	}
	return &spec, nil
}

func finiteField(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// effPower maps the wire's "zero means default" power convention to
// the physical value.
func effPower(p float64) float64 {
	if p == 0 {
		return 1
	}
	return p
}

// Normalize validates the spec and rewrites it into canonical form:
// the deprecated Powers array folds into per-station Power fields,
// powers equal to the uniform default 1 are zeroed (so explicit and
// omitted defaults hash alike), a nil station list becomes empty, and
// an all-zero SchedulePolicy is dropped. Normalize is idempotent; a
// normalized spec marshals to its canonical JSON.
func (sp *NetworkSpec) Normalize() error {
	if sp.Name == "" {
		return errors.New("network name is required")
	}
	if sp.Powers != nil {
		if len(sp.Powers) != len(sp.Stations) {
			return fmt.Errorf("%d powers for %d stations", len(sp.Powers), len(sp.Stations))
		}
		for i, p := range sp.Powers {
			sp.Stations[i].Power = p
		}
		sp.Powers = nil
	}
	if sp.Stations == nil {
		sp.Stations = []SpecStation{}
	}
	for i := range sp.Stations {
		st := &sp.Stations[i]
		if !finiteField(st.X) || !finiteField(st.Y) {
			return fmt.Errorf("station %d has a non-finite coordinate", i)
		}
		if st.Power < 0 || !finiteField(st.Power) {
			return fmt.Errorf("station %d power must be a non-negative finite number, got %g", i, st.Power)
		}
		if st.Power == 1 {
			st.Power = 0
		}
	}
	if !finiteField(sp.Noise) || !finiteField(sp.Beta) || !finiteField(sp.Alpha) {
		return errors.New("noise, beta and alpha must be finite numbers")
	}
	if _, err := resolve.ParseKind(sp.Resolver); err != nil {
		return err
	}
	if sp.Radius < 0 || !finiteField(sp.Radius) {
		return fmt.Errorf("radius must be a non-negative finite number, got %g", sp.Radius)
	}
	if sp.Schedule != nil {
		if *sp.Schedule == (SchedulePolicy{}) {
			sp.Schedule = nil
		} else if err := sp.Schedule.validate(); err != nil {
			return err
		}
	}
	return nil
}

// validate accepts the policies whose knobs a schedule request
// accepts.
func (p *SchedulePolicy) validate() error {
	req := ScheduleRequest{Scheduler: p.Scheduler, Model: p.Model, Order: p.Order, LinkLen: p.LinkLen}
	if _, _, err := req.params(); err != nil {
		return fmt.Errorf("schedule policy: %w", err)
	}
	return nil
}

// CanonicalJSON normalizes the spec and returns its canonical
// serialization — the exact bytes GET /v1/networks/{name} reads back
// after this spec is applied, and the bytes whose hash the reconcile
// differ compares.
func (sp *NetworkSpec) CanonicalJSON() ([]byte, error) {
	if err := sp.Normalize(); err != nil {
		return nil, err
	}
	return json.Marshal(sp)
}

// SpecHash returns the content hash of a canonical spec serialization.
func SpecHash(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
}

// Hash normalizes the spec and returns its content hash.
func (sp *NetworkSpec) Hash() (string, error) {
	b, err := sp.CanonicalJSON()
	if err != nil {
		return "", err
	}
	return SpecHash(b), nil
}

// structuralEqual reports whether two normalized specs agree on the
// physics parameters the dynamic engine is constructed with. Anything
// else (stations, powers, resolver, radius, schedule policy) can
// change on the PATCH path; these cannot.
func structuralEqual(a, b *NetworkSpec) bool {
	return a.Noise == b.Noise && a.Beta == b.Beta && a.Alpha == b.Alpha
}

// diffStations computes the dynamic.Delta that transforms the station
// list old into new, reporting whether such a delta exists. A delta
// removes unmatched stations (compacting survivors in order), adjusts
// survivor powers, and appends additions — so new must be "survivors
// in old order, then additions". Matching is by position (powers are
// adjustable via SetPower); the longest matchable prefix of new is
// matched greedily as a subsequence of old. An empty returned delta
// means the station lists are identical.
func diffStations(old, new []SpecStation) (dynamic.Delta, bool) {
	type pos struct{ x, y float64 }
	byPos := make(map[pos][]int, len(old))
	for i, st := range old {
		p := pos{st.X, st.Y}
		byPos[p] = append(byPos[p], i)
	}
	matched := make([]int, 0, len(new))
	last := -1
	k := 0
	for ; k < len(new); k++ {
		p := pos{new[k].X, new[k].Y}
		idxs := byPos[p]
		j := -1
		for len(idxs) > 0 {
			cand := idxs[0]
			idxs = idxs[1:]
			if cand > last {
				j = cand
				break
			}
		}
		byPos[p] = idxs
		if j < 0 {
			break
		}
		matched = append(matched, j)
		last = j
	}
	if len(matched) == 0 && len(old) > 0 && len(new) > 0 {
		// Nothing survives in place: a rebuild is at least as cheap as
		// remove-everything-add-everything through the engine.
		return dynamic.Delta{}, false
	}
	var d dynamic.Delta
	survives := make([]bool, len(old))
	for mi, j := range matched {
		survives[j] = true
		if effPower(old[j].Power) != effPower(new[mi].Power) {
			d.SetPower = append(d.SetPower, dynamic.PowerUpdate{Station: j, Power: effPower(new[mi].Power)})
		}
	}
	for j := range old {
		if !survives[j] {
			d.Remove = append(d.Remove, j)
		}
	}
	for _, st := range new[k:] {
		d.Add = append(d.Add, dynamic.Station{Pos: geom.Pt(st.X, st.Y), Power: st.Power})
	}
	return d, true
}

// respec derives the declarative identity of a post-delta generation:
// metadata and physics fields carry over from the (already normalized)
// base spec; stations and powers are re-read from the new network.
// The result is canonical — identical to what normalizing a fresh spec
// with these stations would produce.
func respec(base *NetworkSpec, net *core.Network) (*NetworkSpec, []byte, string) {
	sp := *base
	pts := net.Stations()
	stations := make([]SpecStation, len(pts))
	for i := range stations {
		p := net.Power(i)
		if p == 1 {
			p = 0
		}
		stations[i] = SpecStation{X: pts[i].X, Y: pts[i].Y, Power: p}
	}
	sp.Stations = stations
	canonical, err := json.Marshal(&sp)
	if err != nil {
		// Unreachable for a normalized base (all fields finite), but a
		// nil identity only disables readback, never serving.
		return nil, nil, ""
	}
	return &sp, canonical, SpecHash(canonical)
}

// SpecOutcome says what applying a spec did to the registry.
type SpecOutcome int

const (
	// SpecUnchanged: the live generation already matches the spec hash.
	SpecUnchanged SpecOutcome = iota
	// SpecCreated: the name was new; a network was built from scratch.
	SpecCreated
	// SpecPatched: drift was absorbed through the dynamic.Delta path
	// (station/power changes, or a metadata-only swap).
	SpecPatched
	// SpecReplaced: the network was rebuilt wholesale (physics
	// parameters changed, or the station diff was not delta-shaped).
	SpecReplaced
)

var specOutcomeNames = [...]string{"unchanged", "created", "patched", "replaced"}

// String implements fmt.Stringer — the reconcile outcome metric's
// label vocabulary.
func (o SpecOutcome) String() string {
	if int(o) >= 0 && int(o) < len(specOutcomeNames) {
		return specOutcomeNames[o]
	}
	return "unknown"
}

// SpecResult reports one ApplySpec: the outcome taken, the resulting
// generation, and the served shape.
type SpecResult struct {
	Name     string
	Outcome  SpecOutcome
	Version  uint64
	Stations int
	Resolver string
}

// ApplySpec converges the registry toward spec with the cheapest
// available operation: a no-op when the live generation's spec hash
// already matches, the dynamic.Delta PATCH path when only stations,
// powers or serving metadata drifted, and a full rebuild otherwise
// (including creation). It is idempotent — applying the same spec
// twice leaves the second call unchanged — which is what makes it a
// safe reconcile target. The imperative POST /v1/networks keeps its
// historical replace semantics (every call bumps the generation) by
// going through the force path instead.
func (s *Server) ApplySpec(spec *NetworkSpec) (SpecResult, error) {
	return s.applySpec(spec, true)
}

func (s *Server) applySpec(spec *NetworkSpec, convergent bool) (SpecResult, error) {
	canonical, err := spec.CanonicalJSON()
	if err != nil {
		return SpecResult{}, err
	}
	hash := SpecHash(canonical)
	kind, err := resolve.ParseKind(spec.Resolver)
	if err != nil {
		return SpecResult{}, err
	}

	if convergent {
		if entry, ok := s.entryFor(spec.Name); ok {
			if res, done, err := s.tryConverge(spec, canonical, hash, kind, entry); done {
				return res, err
			}
		}
	}
	return s.rebuildFromSpec(spec, canonical, hash, kind)
}

// tryConverge attempts the cheap convergence paths against an existing
// entry: unchanged (hash match) or the delta/metadata PATCH path. done
// is false when the caller must fall back to a full rebuild.
func (s *Server) tryConverge(spec *NetworkSpec, canonical []byte, hash string, kind resolve.Kind, entry *netEntry) (SpecResult, bool, error) {
	entry.mu.Lock()
	defer entry.mu.Unlock()
	old := entry.snap.Load()
	if old == nil || old.spec == nil || entry.dyn == nil {
		return SpecResult{}, false, nil
	}
	if old.specHash == hash {
		return SpecResult{
			Name: spec.Name, Outcome: SpecUnchanged, Version: old.version,
			Stations: old.net.NumStations(), Resolver: old.kind.String(),
		}, true, nil
	}
	if !structuralEqual(old.spec, spec) {
		return SpecResult{}, false, nil
	}
	delta, ok := diffStations(old.spec.Stations, spec.Stations)
	if !ok {
		return SpecResult{}, false, nil
	}
	version := old.version + 1
	next := &snapshot{
		version: version, kind: kind, radius: spec.Radius,
		spec: spec, specJSON: canonical, specHash: hash,
	}
	if len(delta.SetPower) == 0 && len(delta.Remove) == 0 && len(delta.Add) == 0 {
		// Stations identical: only serving metadata (resolver, radius,
		// schedule policy) drifted — swap the snapshot, keep the engine.
		next.net, next.epoch = old.net, old.epoch
	} else {
		es, err := entry.dyn.Apply(delta)
		if err != nil {
			// A delta the engine rejects (should not happen for a diff we
			// derived) falls back to the rebuild path rather than failing
			// the reconcile.
			return SpecResult{}, false, nil
		}
		next.net, next.epoch = es.Network(), es
	}
	s.publish(entry, next)
	return SpecResult{
		Name: spec.Name, Outcome: SpecPatched, Version: version,
		Stations: next.net.NumStations(), Resolver: kind.String(),
	}, true, nil
}

// rebuildFromSpec builds the network from scratch and installs it as a
// new generation (creating the registry slot on first sighting).
func (s *Server) rebuildFromSpec(spec *NetworkSpec, canonical []byte, hash string, kind resolve.Kind) (SpecResult, error) {
	stations := make([]geom.Point, len(spec.Stations))
	nonUniform := false
	for i, st := range spec.Stations {
		stations[i] = geom.Pt(st.X, st.Y)
		if st.Power != 0 {
			nonUniform = true
		}
	}
	var opts []core.Option
	if nonUniform {
		powers := make([]float64, len(spec.Stations))
		for i, st := range spec.Stations {
			powers[i] = effPower(st.Power)
		}
		opts = append(opts, core.WithPowers(powers))
	}
	if spec.Alpha != 0 {
		opts = append(opts, core.WithAlpha(spec.Alpha))
	}
	net, err := core.NewNetwork(stations, spec.Noise, spec.Beta, opts...)
	if err != nil {
		return SpecResult{}, fmt.Errorf("invalid network: %w", err)
	}
	dyn, err := dynamic.New(net)
	if err != nil {
		return SpecResult{}, fmt.Errorf("invalid network: %w", err)
	}

	s.mu.Lock()
	entry, ok := s.nets[spec.Name]
	if !ok {
		entry = &netEntry{}
		if s.opt.MaxConcurrent > 0 {
			entry.sem = make(chan struct{}, s.opt.MaxConcurrent)
		}
		s.nets[spec.Name] = entry
		// First sighting of this name: publish its generation gauges
		// under s.mu so a racing DeleteNetwork cannot unregister them
		// after we register (delete holds s.mu for its unregister).
		s.m.registerNetworkGauges(spec.Name, entry)
	}
	s.mu.Unlock()

	outcome := SpecCreated
	entry.mu.Lock()
	version := uint64(1)
	if old := entry.snap.Load(); old != nil {
		version = old.version + 1
		outcome = SpecReplaced
	}
	entry.dyn = dyn
	s.publish(entry, &snapshot{
		net: net, version: version, kind: kind, radius: spec.Radius, epoch: dyn.Snapshot(),
		spec: spec, specJSON: canonical, specHash: hash,
	})
	entry.mu.Unlock()
	return SpecResult{
		Name: spec.Name, Outcome: outcome, Version: version,
		Stations: net.NumStations(), Resolver: kind.String(),
	}, nil
}

// DeleteNetwork removes name from the registry, reporting whether it
// existed: the slot disappears (later requests 404), every cached
// resolver and schedule for the name is evicted, and the per-network
// gauges leave /metrics — a scrape after a delete carries no trace of
// the network. In-flight requests that captured the entry finish
// normally on their pinned snapshot.
func (s *Server) DeleteNetwork(name string) bool {
	s.mu.Lock()
	entry, ok := s.nets[name]
	if ok {
		delete(s.nets, name)
		// Unregister under s.mu so a concurrent re-registration of the
		// same name cannot interleave (its gauge registration also runs
		// under s.mu).
		s.m.unregisterNetworkGauges(name)
	}
	s.mu.Unlock()
	if !ok {
		return false
	}
	s.resolvers.drop(entry, math.MaxUint64)
	s.schedules.drop(entry, math.MaxUint64)
	// The observability surface forgets the network too: captured
	// traces leave the flight recorder and its exemplars leave the
	// latency histograms, mirroring the gauge eviction above — both
	// HTTP DELETE and reconcile eviction land here.
	s.recorder.DropNetwork(name)
	s.m.dropExemplars(name)
	return true
}

// SpecHashOf returns the content hash of the spec behind name's live
// generation — the reconcile differ's drift probe.
func (s *Server) SpecHashOf(name string) (string, bool) {
	entry, ok := s.entryFor(name)
	if !ok {
		return "", false
	}
	snap := entry.snap.Load()
	if snap == nil || snap.specHash == "" {
		return "", false
	}
	return snap.specHash, true
}

// NetworkSpecJSON returns the canonical serialization of the spec
// behind name's live generation and that generation's version. The
// bytes are exactly what produced the network: a spec round-trips
// byte-stably through create and readback.
func (s *Server) NetworkSpecJSON(name string) ([]byte, uint64, bool) {
	entry, ok := s.entryFor(name)
	if !ok {
		return nil, 0, false
	}
	snap := entry.snap.Load()
	if snap == nil || snap.specJSON == nil {
		return nil, 0, false
	}
	return snap.specJSON, snap.version, true
}

// Metrics returns the server's metrics registry, so embedding layers
// (the reconcile controller) publish their instruments into the same
// /metrics document the server already serves.
func (s *Server) Metrics() *metrics.Registry { return s.m.reg }

// Recorder returns the server's trace flight recorder, so embedding
// layers (the reconcile controller) capture their sync-pass traces
// into the same /debug/requests timeline the server already serves.
func (s *Server) Recorder() *trace.Recorder { return s.recorder }
