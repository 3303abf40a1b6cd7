package resolve

import (
	"fmt"
	"math"
)

// DefaultEps is the Theorem 3 performance parameter used when a
// LocatorResolver is built without WithEpsilon. It matches the serving
// layer's default so a bare NewLocator answers like a bare /v1/locate.
const DefaultEps = 0.05

// config is the merged result of the functional options.
type config struct {
	workers       int
	eps           float64
	exactFallback bool
	connRadius    float64
	interfRadius  float64
}

// Option customizes resolver construction. Options irrelevant to a
// backend are validated (a NaN radius is an error everywhere) but
// otherwise ignored, so one option slice can configure any Kind —
// which is what keeps registry-style construction (New) uniform.
type Option func(*config) error

// newConfig applies opts over the defaults: one worker per CPU,
// DefaultEps, exact fallback on, UDG radii derived from the network.
func newConfig(opts []Option) (config, error) {
	c := config{eps: DefaultEps, exactFallback: true}
	for _, opt := range opts {
		if err := opt(&c); err != nil {
			return c, err
		}
	}
	return c, nil
}

// WithWorkers sets the worker count used by ResolveBatch and
// ResolveStream, and by the Theorem 3 locator build. Zero (the
// default) means one worker per schedulable CPU; one forces the
// serial paths. Answers are identical for every setting.
func WithWorkers(workers int) Option {
	return func(c *config) error {
		if workers < 0 {
			return fmt.Errorf("resolve: negative worker count %d", workers)
		}
		c.workers = workers
		return nil
	}
}

// WithEpsilon sets the Theorem 3 performance parameter of a
// LocatorResolver (default DefaultEps): the structure has O(n/eps)
// size and each zone's uncertainty ring at most an eps fraction of
// its area. Other backends ignore it.
func WithEpsilon(eps float64) Option {
	return func(c *config) error {
		if !(eps > 0) || math.IsInf(eps, 0) {
			return fmt.Errorf("resolve: epsilon must be a positive finite number, got %g", eps)
		}
		c.eps = eps
		return nil
	}
}

// WithExactFallback controls how a LocatorResolver answers queries
// landing in an uncertainty ring (default true): with fallback, an H?
// hit is settled by one direct SINR evaluation through the single
// shared code path (Locator.ResolveUncertain), so every answer is
// exact; without it, the resolver surfaces core.Uncertain and the
// caller owns the ring. Other backends are exact by construction and
// ignore the option.
func WithExactFallback(on bool) Option {
	return func(c *config) error {
		c.exactFallback = on
		return nil
	}
}

// WithRadius sets a UDGResolver's connectivity radius, and its
// interference radius too unless WithInterfRadius overrides it.
// Unset (zero) means DefaultUDGRadius of the network. Other backends
// ignore it.
func WithRadius(r float64) Option {
	return func(c *config) error {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("resolve: radius must be a non-negative finite number, got %g", r)
		}
		c.connRadius = r
		return nil
	}
}

// WithInterfRadius sets a UDGResolver's interference radius
// independently of its connectivity radius (the Quasi-UDG model);
// it must be at least the connectivity radius. Unset means equal to
// the connectivity radius (classic UDG). Other backends ignore it.
func WithInterfRadius(r float64) Option {
	return func(c *config) error {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("resolve: interference radius must be a non-negative finite number, got %g", r)
		}
		c.interfRadius = r
		return nil
	}
}
