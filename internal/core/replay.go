package core

import (
	"fmt"

	"alps/internal/obs"
)

// ReplayTask is one task registration for Replay, mirroring the
// registrations of the captured run.
type ReplayTask struct {
	ID    TaskID
	Share int64
	// Tick is the scheduler's quantum counter at registration time: 0 for
	// tasks registered before the run started (the common case), k for a
	// task admitted mid-run after quantum k completed. Replay re-admits
	// the task at the same point, so captures that include mid-run
	// admissions — including ones that turn eligible in the same quantum
	// as a cycle grant — replay exactly.
	Tick int64
}

// Replay re-executes the Figure 3 algorithm against the measurements
// recorded in a captured Observer event stream and returns the events the
// replayed scheduler emits. Because the scheduler is deterministic given
// its inputs, the returned stream must match the captured one exactly
// (modulo the substrate timestamp At, which Replay leaves zero): every
// eligibility transition, grant, and postponement is reproduced from the
// KindMeasure/KindDead events alone. That is the load-bearing property of
// the event taxonomy — the stream fully explains the scheduler's
// decisions, on any substrate — and it turns a captured trace from a
// production incident into a re-runnable artifact.
//
// cfg.Observer is ignored; quantum and DisableLazySampling must match the
// captured run, and tasks must list the original registrations in the
// original order. Replay fails if the replayed scheduler requests a
// measurement the capture does not contain (a divergence: the
// configurations differ, or the capture is truncated mid-quantum).
func Replay(cfg Config, tasks []ReplayTask, events []obs.Event) ([]obs.Event, error) {
	type key struct{ tick, task int64 }
	meas := make(map[key]Progress)
	dead := make(map[key]bool)
	var ticks int64
	for _, e := range events {
		switch e.Kind {
		case obs.KindQuantumStart:
			ticks++
		case obs.KindMeasure:
			meas[key{e.Tick, e.Task}] = Progress{Consumed: e.Consumed, Blocked: e.Blocked, Width: e.N}
		case obs.KindDead:
			dead[key{e.Tick, e.Task}] = true
		}
	}

	log := obs.NewEventLog()
	cfg.Observer = log
	cfg.OnCycle = nil
	s := New(cfg)
	pending := make([]ReplayTask, 0, len(tasks))
	for _, t := range tasks {
		if t.Tick > 0 {
			pending = append(pending, t)
			continue
		}
		if err := s.Add(t.ID, t.Share); err != nil {
			return nil, fmt.Errorf("core: replay registration: %w", err)
		}
	}
	var divergence error
	read := func(id TaskID) (Progress, bool) {
		k := key{s.Tick(), int64(id)}
		if dead[k] {
			return Progress{}, false
		}
		p, ok := meas[k]
		if !ok && divergence == nil {
			divergence = fmt.Errorf("core: replay diverged: scheduler requested a measurement of task %d at tick %d that the capture does not contain", id, s.Tick())
		}
		return p, true
	}
	for i := int64(0); i < ticks; i++ {
		for _, t := range pending {
			if t.Tick != s.Tick() {
				continue
			}
			if err := s.Add(t.ID, t.Share); err != nil {
				return nil, fmt.Errorf("core: replay mid-run registration: %w", err)
			}
		}
		s.TickQuantum(read)
		if divergence != nil {
			return nil, divergence
		}
	}
	return log.Events(), nil
}

// TransitionsOf filters an event stream down to its eligibility
// transitions with timestamps cleared — the canonical form for comparing
// a captured decision sequence against a Replay (or one substrate's run
// against another's).
func TransitionsOf(events []obs.Event) []obs.Event {
	var out []obs.Event
	for _, e := range events {
		if e.Kind != obs.KindTransition {
			continue
		}
		e.At = 0
		out = append(out, e)
	}
	return out
}
