package alps

import (
	"alps/internal/core"
	"alps/internal/obs"
)

// Observability facade: decision tracing, metrics, and the cycle
// journal. Both substrates accept an Observer (RunnerConfig.Observer /
// SimConfig.Observer) and emit the same event vocabulary, so one tracer
// explains why a process was stopped in the simulator and on a live
// host alike. RunnerConfig.Metrics additionally exports the runner's
// health counters and latency histograms to a Registry.

// Observer receives one Event per step of the Figure 3 algorithm.
type Observer = obs.Observer

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc = obs.ObserverFunc

// Event is one scheduling decision or algorithm step.
type Event = obs.Event

// EventKind discriminates Event payloads (measure, grant, transition...).
type EventKind = obs.Kind

// EventLog is an unbounded, concurrency-safe Event collector.
type EventLog = obs.EventLog

// Registry is a set of named metrics with Prometheus text exposition.
type Registry = obs.Registry

// Journal is a bounded ring buffer of per-cycle consumption records.
type Journal = obs.Journal

// NewRegistry creates an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewEventLog creates an empty event collector.
func NewEventLog() *EventLog { return obs.NewEventLog() }

// NewJournal creates a journal holding the most recent n cycles.
func NewJournal(n int) *Journal { return obs.NewJournal(n) }

// MultiObserver fans events out to several observers, skipping nils.
func MultiObserver(os ...Observer) Observer { return obs.Multi(os...) }

// NewMetricsObserver returns an Observer that feeds scheduling-event
// counters and tick/cycle gauges into a Registry.
func NewMetricsObserver(reg *Registry) Observer { return obs.NewMetricsObserver(reg) }

// ReplayTask is one task registration for ReplayEvents.
type ReplayTask = core.ReplayTask

// ReplayEvents re-executes the algorithm against a captured event
// stream's measurements and returns the replayed stream; the transitions
// must match the capture exactly (see internal/core.Replay).
func ReplayEvents(cfg Config, tasks []ReplayTask, events []Event) ([]Event, error) {
	return core.Replay(cfg, tasks, events)
}
