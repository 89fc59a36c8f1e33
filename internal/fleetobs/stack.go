package fleetobs

import (
	"net/http"
	"time"

	"alps/internal/obs"
	"alps/internal/trace"
	"alps/internal/tshist"
)

// StackConfig parameterizes the coordinator-side fleet observability
// stack.
type StackConfig struct {
	// Node names the coordinator in merged traces (e.g. "coord").
	Node string
	// Dir is the bundle directory ("" keeps collections in memory).
	Dir string
	// Cooldown rate-limits collections (DefaultBundleCooldown when 0).
	Cooldown time.Duration
	// Metrics receives the stack's own exports and is the registry the
	// retained history samples; pass the coordinator's registry so the
	// timeline carries its alps_coord_* and alps_fleet_* gauges. Nil
	// allocates a dedicated registry.
	Metrics *obs.Registry
	// Now overrides time.Now.
	Now func() time.Time
	// Logf receives diagnostics.
	Logf func(format string, args ...any)
	// HistoryEvery is the retained-history sampling cadence
	// (tshist.DefaultEvery when 0; negative disables the store). Each
	// retained series holds tshist.DefaultCapacity samples.
	HistoryEvery time.Duration
}

// Stack bundles the coordinator's two fleet observability pieces, the
// tracer (its own control-plane event ring) and the bundler (correlated
// flight recording), with the retained history of its registry. The
// coord server calls its hooks; cmd/alps mounts its HTTP surface.
type Stack struct {
	Tracer  *Tracer
	Bundler *Bundler
	// History retains a bounded timeline of every gauge on the registry,
	// served at /fleet/timeline. The coordinator's Tick drives its
	// cadence, so in coordsim the samples land on the virtual clock. Nil
	// when disabled.
	History *tshist.Store
}

// NewStack wires a coordinator stack: the bundler's self source is the
// tracer's window, and both register on the stack's registry.
func NewStack(cfg StackConfig) *Stack {
	if cfg.Node == "" {
		cfg.Node = "coord"
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	tracer := NewTracer(TracerConfig{Node: cfg.Node, Coordinator: true, Now: cfg.Now})
	bundler := NewBundler(BundlerConfig{
		Dir:      cfg.Dir,
		Cooldown: cfg.Cooldown,
		Now:      cfg.Now,
		Logf:     cfg.Logf,
		Self:     func() trace.FleetSource { return tracer.Source(nil, time.Time{}) },
	})
	bundler.Register(reg)
	reg.CounterFunc("alps_fleet_trace_events_total",
		"Coordinator control-plane events traced.", tracer.Events)
	var hist *tshist.Store
	if cfg.HistoryEvery >= 0 {
		hist = tshist.New(tshist.Config{
			Source: reg,
			Every:  cfg.HistoryEvery,
			Now:    cfg.Now,
		})
	}
	return &Stack{Tracer: tracer, Bundler: bundler, History: hist}
}

// Mount exposes the fleet endpoints on a mux: the latest correlated
// trace bundle and, when history is on, the retained timeline (JSON, or
// CSV with ?format=csv).
func (s *Stack) Mount(mux *http.ServeMux) {
	mux.Handle("/debug/fleet-trace", s.Bundler)
	if s.History != nil {
		mux.Handle("/fleet/timeline", s.History.Handler())
	}
}
