package comptest

import (
	"fmt"
	"time"

	"repro/internal/alloc"
	"repro/internal/stand"
)

// Option configures a Runner. Options are applied in order by
// NewRunner; the first failing option aborts construction.
type Option func(*Runner) error

// WithStand selects a registered stand profile by name as the Runner's
// default stand. The name is resolved immediately, so a typo fails at
// construction rather than at run time.
func WithStand(name string) Option {
	return func(r *Runner) error {
		if !standRegistered(name) {
			return fmt.Errorf("comptest: unknown stand %q (have %v)", name, StandNames())
		}
		r.standName = name
		r.standCfg = nil
		return nil
	}
}

// WithStandConfig supplies an explicit stand configuration, bypassing
// the registry. Every stand the Runner builds is built from it, so it
// must be safe to share (the built stands own all mutable state).
func WithStandConfig(cfg stand.Config) Option {
	return func(r *Runner) error {
		if cfg.Catalog == nil || cfg.Matrix == nil {
			return fmt.Errorf("comptest: WithStandConfig needs a catalog and a matrix")
		}
		c := cfg
		r.standCfg = &c
		r.standName = ""
		return nil
	}
}

// WithDUT selects a registered ECU model by name as the Runner's
// default DUT. Each stand the Runner builds gets its own instance,
// reset before every run.
func WithDUT(name string) Option {
	return func(r *Runner) error {
		if !dutRegistered(name) {
			return fmt.Errorf("comptest: unknown DUT %q (have %v)", name, DUTNames())
		}
		r.dutName = name
		return nil
	}
}

// WithAllocStrategy overrides the resource-allocation strategy of every
// stand the Runner builds.
func WithAllocStrategy(s alloc.Strategy) Option {
	return func(r *Runner) error {
		r.strategy = &s
		return nil
	}
}

// WithSettleTime overrides the init-block settle time of every stand
// the Runner builds.
func WithSettleTime(d time.Duration) Option {
	return func(r *Runner) error {
		if d <= 0 {
			return fmt.Errorf("comptest: settle time must be positive, got %v", d)
		}
		r.settle = d
		return nil
	}
}

// WithParallelism bounds the Campaign worker pool to n concurrent
// executions. The default is 1 (sequential).
func WithParallelism(n int) Option {
	return func(r *Runner) error {
		if n < 1 {
			return fmt.Errorf("comptest: parallelism must be >= 1, got %d", n)
		}
		r.parallel = n
		return nil
	}
}

// WithoutStandPool disables stand reuse across campaign units: every
// unit gets a freshly built stand. It is the fresh-stand reference the
// equivalence tests compare the pooled Runner against; the pool never
// changes a report byte, so this is not a correctness switch.
func WithoutStandPool() Option {
	return func(r *Runner) error {
		r.noPool = true
		return nil
	}
}

// WithSink adds a result sink. Sinks receive every Result as it
// completes; the Runner serialises Emit calls, so sinks need no
// locking of their own. The option may be repeated.
func WithSink(s Sink) Option {
	return func(r *Runner) error {
		if s == nil {
			return fmt.Errorf("comptest: WithSink needs a non-nil sink")
		}
		r.sinks = append(r.sinks, s)
		return nil
	}
}
