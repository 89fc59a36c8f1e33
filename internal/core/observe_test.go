package core

import (
	"testing"
	"time"

	"alps/internal/obs"
)

// constReader returns fixed progress for every task.
func uniformReader(consumed time.Duration, blocked bool) Reader {
	return func(TaskID) (Progress, bool) {
		return Progress{Consumed: consumed, Blocked: blocked}, true
	}
}

// pb/pe build the KindPhaseBegin/KindPhaseEnd markers that bracket each
// algorithm stage, keeping the pinned sequences below readable.
func pb(tick int64, p obs.Phase) obs.Event {
	return obs.Event{Kind: obs.KindPhaseBegin, Tick: tick, Task: -1, N: int(p)}
}

func pe(tick int64, p obs.Phase) obs.Event {
	return obs.Event{Kind: obs.KindPhaseEnd, Tick: tick, Task: -1, N: int(p)}
}

// TestEventTaxonomy pins the exact event sequence of a tiny deterministic
// scenario: two tasks with shares 1 and 2 at Q=10ms, each consuming a
// full quantum whenever measured. This is the regression anchor for the
// event taxonomy documented in DESIGN.md.
func TestEventTaxonomy(t *testing.T) {
	q := 10 * time.Millisecond
	log := obs.NewEventLog()
	s := New(Config{Quantum: q, Observer: log})
	if err := s.Add(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(2, 2); err != nil {
		t.Fatal(err)
	}

	// Tick 1: both tasks ineligible with full allowances; nothing is
	// measured, both admitted to eligibility.
	s.TickQuantum(uniformReader(q, false))
	want := []obs.Event{
		{Kind: obs.KindQuantumStart, Tick: 1, Task: -1, N: 2},
		pb(1, obs.PhaseSample), pe(1, obs.PhaseSample),
		pb(1, obs.PhaseCharge), pe(1, obs.PhaseCharge),
		pb(1, obs.PhaseDecide),
		{Kind: obs.KindTransition, Tick: 1, Task: 1, Eligible: true, Reason: obs.ReasonAdmitted, Allowance: q},
		{Kind: obs.KindTransition, Tick: 1, Task: 2, Eligible: true, Reason: obs.ReasonAdmitted, Allowance: 2 * q},
		{Kind: obs.KindPostpone, Tick: 1, Task: 2, Allowance: 2 * q, Wake: 3},
		pe(1, obs.PhaseDecide),
		{Kind: obs.KindQuantumEnd, Tick: 1, Task: -1, N: 0, Cycle: 0},
	}
	if got := log.Events(); !equalEvents(got, want) {
		t.Fatalf("tick 1 events:\n%v\nwant:\n%v", fmtEvents(got), fmtEvents(want))
	}

	// Tick 2: task 1 is due (update=tick 2 after admission at allowance
	// q), consumes q, exhausts, suspends. Task 2 postponed (no event:
	// its wake was already scheduled).
	log.Reset()
	s.TickQuantum(uniformReader(q, false))
	want = []obs.Event{
		{Kind: obs.KindQuantumStart, Tick: 2, Task: -1, N: 2},
		pb(2, obs.PhaseSample),
		{Kind: obs.KindMeasure, Tick: 2, Task: 1, Consumed: q, Allowance: 0},
		pe(2, obs.PhaseSample),
		pb(2, obs.PhaseCharge), pe(2, obs.PhaseCharge),
		pb(2, obs.PhaseDecide),
		{Kind: obs.KindTransition, Tick: 2, Task: 1, Eligible: false, Reason: obs.ReasonExhausted, Allowance: 0},
		pe(2, obs.PhaseDecide),
		{Kind: obs.KindQuantumEnd, Tick: 2, Task: -1, N: 1, Cycle: 0},
	}
	if got := log.Events(); !equalEvents(got, want) {
		t.Fatalf("tick 2 events:\n%v\nwant:\n%v", fmtEvents(got), fmtEvents(want))
	}

	// Tick 3: task 2 is due, consumes q (one quantum of the two it is
	// entitled to — it had the CPU alone only after task 1 suspended).
	// The cycle is not yet complete (t_c = 3q - 1q(task1) - 1q(task2) =
	// 1q > 0).
	log.Reset()
	s.TickQuantum(uniformReader(q, false))
	want = []obs.Event{
		{Kind: obs.KindQuantumStart, Tick: 3, Task: -1, N: 2},
		pb(3, obs.PhaseSample),
		{Kind: obs.KindMeasure, Tick: 3, Task: 2, Consumed: q, Allowance: q},
		pe(3, obs.PhaseSample),
		pb(3, obs.PhaseCharge), pe(3, obs.PhaseCharge),
		pb(3, obs.PhaseDecide), pe(3, obs.PhaseDecide),
		{Kind: obs.KindQuantumEnd, Tick: 3, Task: -1, N: 1, Cycle: 0},
	}
	if got := log.Events(); !equalEvents(got, want) {
		t.Fatalf("tick 3 events:\n%v\nwant:\n%v", fmtEvents(got), fmtEvents(want))
	}

	// Tick 4: task 2 consumes its last quantum; the cycle completes,
	// grants fire (task 1 carries 0, task 2 carries 0), task 1 resumes.
	log.Reset()
	s.TickQuantum(uniformReader(q, false))
	want = []obs.Event{
		{Kind: obs.KindQuantumStart, Tick: 4, Task: -1, N: 2},
		pb(4, obs.PhaseSample),
		{Kind: obs.KindMeasure, Tick: 4, Task: 2, Consumed: q, Allowance: 0},
		pe(4, obs.PhaseSample),
		pb(4, obs.PhaseCharge),
		{Kind: obs.KindCycle, Tick: 4, Task: -1, Cycle: 0, N: 2, Length: 3 * q},
		{Kind: obs.KindGrant, Tick: 4, Task: 1, Cycle: 0, Carry: 0, Allowance: q},
		{Kind: obs.KindGrant, Tick: 4, Task: 2, Cycle: 0, Carry: 0, Allowance: 2 * q},
		pe(4, obs.PhaseCharge),
		pb(4, obs.PhaseDecide),
		{Kind: obs.KindTransition, Tick: 4, Task: 1, Eligible: true, Reason: obs.ReasonGrant, Allowance: q},
		{Kind: obs.KindPostpone, Tick: 4, Task: 2, Allowance: 2 * q, Wake: 6},
		pe(4, obs.PhaseDecide),
		{Kind: obs.KindQuantumEnd, Tick: 4, Task: -1, N: 1, Cycle: 1},
	}
	if got := log.Events(); !equalEvents(got, want) {
		t.Fatalf("tick 4 events:\n%v\nwant:\n%v", fmtEvents(got), fmtEvents(want))
	}
}

// TestDeadTaskEvent: a Reader reporting a task gone yields KindDead.
func TestDeadTaskEvent(t *testing.T) {
	q := 10 * time.Millisecond
	log := obs.NewEventLog()
	s := New(Config{Quantum: q, Observer: log})
	if err := s.Add(7, 1); err != nil {
		t.Fatal(err)
	}
	s.TickQuantum(uniformReader(0, false)) // admit
	s.TickQuantum(func(TaskID) (Progress, bool) { return Progress{}, false })
	deads := log.Filter(obs.KindDead)
	if len(deads) != 1 || deads[0].Task != 7 {
		t.Fatalf("dead events = %v", deads)
	}
	// The final quantum-end still closes the (now empty) invocation.
	ends := log.Filter(obs.KindQuantumEnd)
	if len(ends) != 2 {
		t.Fatalf("quantum_end events = %d, want 2", len(ends))
	}
}

// TestBlockedTransitionReason: a task suspended because of the §2.4
// blocked charge reports ReasonBlocked. A second, larger-share task
// keeps the cycle open so the blocked exhaustion is not immediately
// undone by a grant.
func TestBlockedTransitionReason(t *testing.T) {
	q := 10 * time.Millisecond
	log := obs.NewEventLog()
	s := New(Config{Quantum: q, Observer: log})
	if err := s.Add(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(2, 3); err != nil {
		t.Fatal(err)
	}
	s.TickQuantum(uniformReader(0, false)) // admit both
	s.TickQuantum(uniformReader(0, true))  // task 1 measured blocked: charged a full quantum
	var trans []obs.Event
	for _, e := range log.Filter(obs.KindTransition) {
		if e.Task == 1 {
			trans = append(trans, e)
		}
	}
	if len(trans) != 2 {
		t.Fatalf("task 1 transitions = %v", trans)
	}
	if got := trans[1]; got.Eligible || got.Reason != obs.ReasonBlocked {
		t.Errorf("blocked suspension = %+v, want ineligible/blocked", got)
	}
}

// TestDisabledObserverAllocs proves the disabled path allocates nothing:
// a quantum in which every task is postponed runs the full loop without
// a single heap allocation when Observer is nil.
func TestDisabledObserverAllocs(t *testing.T) {
	q := 10 * time.Millisecond
	s := New(Config{Quantum: q})
	for i := 0; i < 16; i++ {
		if err := s.Add(TaskID(i), 64); err != nil {
			t.Fatal(err)
		}
	}
	// Two warm-up ticks: admit everyone, take the first measurements,
	// and push every task's next measurement far out.
	rd := uniformReader(q/16, false)
	s.TickQuantum(rd)
	s.TickQuantum(rd)
	allocs := testing.AllocsPerRun(100, func() {
		s.TickQuantum(rd)
	})
	if allocs > 0 {
		t.Errorf("TickQuantum with nil observer allocated %.1f times per postponed quantum, want 0", allocs)
	}
}

func equalEvents(got, want []obs.Event) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		g := got[i]
		g.At = 0
		if g != want[i] {
			return false
		}
	}
	return true
}

func fmtEvents(evs []obs.Event) string {
	out := ""
	for _, e := range evs {
		out += "  " + e.String() + "\n"
	}
	return out
}
