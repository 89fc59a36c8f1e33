// Package obs is the unified observability layer shared by the ALPS core
// algorithm and both of its substrates (the real-OS runner in
// internal/osproc and the simulated kernel in internal/sim). It has three
// pillars, all stdlib-only:
//
//   - a structured Observer/event API that internal/core emits at each
//     step of the Figure 3 algorithm, so one tracer explains *why* a
//     process was stopped on either substrate;
//   - a Prometheus-text-exposition metrics Registry of atomic counters,
//     gauges, and fixed-bucket histograms;
//   - a bounded ring-buffer cycle Journal for post-hoc "what were the
//     last N cycles doing" debugging.
//
// The observer path is designed to cost nothing when disabled: emission
// sites are guarded by a nil check, events are flat value structs (no
// pointers, no allocation on emit), and collectors pay only for what
// they record.
package obs

import (
	"fmt"
	"sync"
	"time"
)

// Kind discriminates scheduling events. The set mirrors the steps of the
// paper's Figure 3 pseudo code, which is what makes the stream a
// sufficient explanation of every eligibility decision: replaying the
// KindMeasure/KindDead inputs through a fresh scheduler reproduces the
// KindTransition outputs exactly (see internal/sim's replay test).
type Kind uint8

const (
	// KindQuantumStart opens one algorithm invocation (tick).
	// Fields: Tick, N (registered tasks).
	KindQuantumStart Kind = iota
	// KindMeasure records a measurement of one task's progress.
	// Fields: Tick, Task, Consumed, Blocked, Allowance (post-charge), N
	// (the drain width k the reader reported: how many CPUs the task
	// could use at once, which §2.3 postpones by; 0 and 1 mean one CPU).
	KindMeasure
	// KindDead records a task dropped because its Reader reported it
	// gone. Fields: Tick, Task.
	KindDead
	// KindCycle records a completed allocation cycle.
	// Fields: Tick, Cycle (completed index), N (tasks), Length (S·Q).
	KindCycle
	// KindGrant records one task's per-cycle allowance grant.
	// Fields: Tick, Cycle, Task, Carry (pre-grant carryover, the §2.2
	// error the next cycle corrects), Allowance (post-grant).
	KindGrant
	// KindTransition records an eligibility flip the driver must enact
	// (SIGSTOP/SIGCONT), or a task leaving S as dormant (ReasonDormant)
	// or rejoining it (ReasonWoke). Both of those carry Eligible true, and
	// are flips only when the Decision's Resume lists the task (a
	// stopped task going dormant); otherwise the task was already
	// eligible and the event repeats that state. Fields: Tick, Task,
	// Eligible (new state), Reason, Allowance (post-transition).
	KindTransition
	// KindPostpone records a §2.3 lazy-sampling decision: the task's
	// next measurement is scheduled more than one quantum out.
	// Fields: Tick, Task, Allowance, Wake (tick of next measurement).
	KindPostpone
	// KindQuantumEnd closes the invocation.
	// Fields: Tick, N (tasks measured), Cycle (completed cycle count).
	KindQuantumEnd
	// KindReconfig records one applied live-reconfiguration change
	// (share, quantum, or principal membership). Fields: Tick, Task (-1
	// for scheduler-wide changes), Share (new share, if a share change),
	// Length (new quantum, if a quantum change), N (new membership size,
	// if a membership change).
	KindReconfig
	// KindDegrade records an overload-guard state change: the effective
	// quantum was stretched (ReasonOverload) or restored one level
	// (ReasonRecovered). Fields: Tick, Task (-1), N (new degrade level),
	// Length (new effective quantum).
	KindDegrade
	// KindPhaseBegin opens one control-cycle phase (see Phase). Emitted
	// by core for the algorithm phases and by the substrates for the
	// signal/sleep phases, so a trace shows where each quantum's time
	// went. Fields: Tick, Task (-1), N (the Phase code).
	KindPhaseBegin
	// KindPhaseEnd closes the matching KindPhaseBegin.
	// Fields: Tick, Task (-1), N (the Phase code).
	KindPhaseEnd
)

var kindNames = [...]string{
	KindQuantumStart: "quantum_start",
	KindMeasure:      "measure",
	KindDead:         "dead",
	KindCycle:        "cycle",
	KindGrant:        "grant",
	KindTransition:   "transition",
	KindPostpone:     "postpone",
	KindQuantumEnd:   "quantum_end",
	KindReconfig:     "reconfig",
	KindDegrade:      "degrade",
	KindPhaseBegin:   "phase_begin",
	KindPhaseEnd:     "phase_end",
}

// String returns the snake_case event name (also used as a metric label).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Kinds returns every event kind, for exhaustive metric registration.
func Kinds() []Kind {
	out := make([]Kind, len(kindNames))
	for i := range kindNames {
		out[i] = Kind(i)
	}
	return out
}

// Phase identifies one stage of a control cycle, carried in the N field
// of KindPhaseBegin/KindPhaseEnd events. The five phases cover a full
// quantum on either substrate: the core algorithm's three Figure 3
// stages plus the substrate's signal enactment and the sleep to the
// next quantum boundary.
type Phase uint8

const (
	// PhaseSample: stage 1 — measuring due tasks and charging their
	// consumption (including dead-task removal).
	PhaseSample Phase = iota
	// PhaseCharge: stage 2 — cycle completion and per-task allowance
	// grants.
	PhaseCharge
	// PhaseDecide: stage 3 — eligibility repartition and §2.3
	// measurement scheduling.
	PhaseDecide
	// PhaseSignal: the substrate enacting Suspend/Resume decisions
	// (SIGSTOP/SIGCONT) and reconciling stragglers.
	PhaseSignal
	// PhaseSleep: the substrate waiting for the next quantum boundary.
	PhaseSleep
)

var phaseNames = [...]string{
	PhaseSample: "sample",
	PhaseCharge: "charge",
	PhaseDecide: "decide",
	PhaseSignal: "signal",
	PhaseSleep:  "sleep",
}

// String returns the phase name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Phases returns every phase, for exhaustive registration and tests.
func Phases() []Phase {
	out := make([]Phase, len(phaseNames))
	for i := range phaseNames {
		out[i] = Phase(i)
	}
	return out
}

// Reason qualifies a KindTransition event.
type Reason uint8

const (
	// ReasonNone: not a transition event.
	ReasonNone Reason = iota
	// ReasonExhausted: the task's allowance fell to zero or below.
	ReasonExhausted
	// ReasonBlocked: exhaustion driven by the §2.4 blocked-task charge.
	ReasonBlocked
	// ReasonGrant: a cycle grant restored a positive allowance.
	ReasonGrant
	// ReasonAdmitted: a newly added task became eligible on its first
	// serviced quantum (no grant involved).
	ReasonAdmitted
	// ReasonOverload: the overload guard stretched the effective quantum
	// because sustained per-quantum work approached the §4.2 breakdown
	// threshold.
	ReasonOverload
	// ReasonRecovered: the overload guard restored the effective quantum
	// one level after sustained headroom.
	ReasonRecovered
	// ReasonDormant: a task observed blocked that consumed nothing for a
	// whole cycle left S at the grant; it is runnable and watched.
	ReasonDormant
	// ReasonWoke: a dormant task's watch read showed consumption or a
	// runnable state, and it rejoined S with a prorated allowance.
	ReasonWoke
)

var reasonNames = [...]string{
	ReasonNone:      "",
	ReasonExhausted: "exhausted",
	ReasonBlocked:   "blocked",
	ReasonGrant:     "grant",
	ReasonAdmitted:  "admitted",
	ReasonOverload:  "overload",
	ReasonRecovered: "recovered",
	ReasonDormant:   "dormant",
	ReasonWoke:      "woke",
}

// String returns the reason name ("" for ReasonNone).
func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// Event is one scheduling event. It is a flat value struct so that
// emitting one neither allocates nor retains memory; which fields are
// meaningful depends on Kind (see the Kind constants). Task is the
// core.TaskID as an int64 (-1 for scheduler-level events).
type Event struct {
	Kind     Kind
	Reason   Reason
	Eligible bool
	Blocked  bool
	N        int

	Tick  int64
	Cycle int64
	Task  int64
	Wake  int64
	Share int64

	Consumed  time.Duration
	Allowance time.Duration
	Carry     time.Duration
	Length    time.Duration

	// At is a substrate timestamp (virtual time in the simulator, offset
	// from start on the real-OS runner). The core scheduler has no clock
	// and leaves it zero; substrate bridges stamp it (see Stamp).
	At time.Duration
}

// String renders the event as a one-line human-readable trace record.
func (e Event) String() string {
	switch e.Kind {
	case KindQuantumStart:
		return fmt.Sprintf("t%-5d quantum_start tasks=%d", e.Tick, e.N)
	case KindMeasure:
		return fmt.Sprintf("t%-5d measure task=%d consumed=%v blocked=%t allowance=%v width=%d",
			e.Tick, e.Task, e.Consumed, e.Blocked, e.Allowance, e.N)
	case KindDead:
		return fmt.Sprintf("t%-5d dead task=%d", e.Tick, e.Task)
	case KindCycle:
		return fmt.Sprintf("t%-5d cycle index=%d tasks=%d length=%v", e.Tick, e.Cycle, e.N, e.Length)
	case KindGrant:
		return fmt.Sprintf("t%-5d grant task=%d carry=%v allowance=%v", e.Tick, e.Task, e.Carry, e.Allowance)
	case KindTransition:
		state := "ineligible"
		if e.Eligible {
			state = "eligible"
		}
		return fmt.Sprintf("t%-5d transition task=%d -> %s (%s) allowance=%v",
			e.Tick, e.Task, state, e.Reason, e.Allowance)
	case KindPostpone:
		return fmt.Sprintf("t%-5d postpone task=%d allowance=%v wake=t%d", e.Tick, e.Task, e.Allowance, e.Wake)
	case KindQuantumEnd:
		return fmt.Sprintf("t%-5d quantum_end measured=%d cycles=%d", e.Tick, e.N, e.Cycle)
	case KindReconfig:
		switch {
		case e.Length > 0:
			return fmt.Sprintf("t%-5d reconfig quantum=%v", e.Tick, e.Length)
		case e.Share > 0:
			return fmt.Sprintf("t%-5d reconfig task=%d share=%d", e.Tick, e.Task, e.Share)
		}
		return fmt.Sprintf("t%-5d reconfig task=%d members=%d", e.Tick, e.Task, e.N)
	case KindDegrade:
		return fmt.Sprintf("t%-5d degrade level=%d quantum=%v (%s)", e.Tick, e.N, e.Length, e.Reason)
	case KindPhaseBegin:
		return fmt.Sprintf("t%-5d phase_begin %s", e.Tick, Phase(e.N))
	case KindPhaseEnd:
		return fmt.Sprintf("t%-5d phase_end %s", e.Tick, Phase(e.N))
	}
	return fmt.Sprintf("t%-5d %s task=%d", e.Tick, e.Kind, e.Task)
}

// Observer receives scheduling events. Implementations must be cheap:
// Observe is called from the scheduler's hot loop, potentially thousands
// of times per second. Implementations used across goroutines must be
// concurrency-safe (the core scheduler itself is single-threaded, but an
// HTTP scrape may read a collector while the loop appends to it).
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe implements Observer.
func (f ObserverFunc) Observe(e Event) { f(e) }

// Multi fans events out to several observers. Nil entries are skipped, so
// callers can compose optional observers without checks; a Multi of zero
// non-nil observers returns nil (keeping the disabled path free).
func Multi(obs ...Observer) Observer {
	var live []Observer
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multi(live)
}

type multi []Observer

func (m multi) Observe(e Event) {
	for _, o := range m {
		o.Observe(e)
	}
}

// Stamp wraps an observer so that every event's At field is set from the
// given clock before delivery. Substrate bridges use it: the simulator
// stamps virtual kernel time, the real-OS runner offset-from-start wall
// time. A nil inner observer yields nil.
func Stamp(clock func() time.Duration, inner Observer) Observer {
	if inner == nil {
		return nil
	}
	return ObserverFunc(func(e Event) {
		e.At = clock()
		inner.Observe(e)
	})
}

// EventLog is an unbounded, concurrency-safe event collector for tests,
// debugging, and replay. Long runs that need bounded memory record into
// the flight recorder's ring (trace.Recorder) instead.
type EventLog struct {
	mu  sync.Mutex
	evs []Event
}

// NewEventLog returns an empty collector.
func NewEventLog() *EventLog { return &EventLog{} }

// Observe implements Observer.
func (l *EventLog) Observe(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.evs = append(l.evs, e)
}

// Events returns a copy of the collected events in emission order.
func (l *EventLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.evs))
	copy(out, l.evs)
	return out
}

// Filter returns the collected events of the given kind, in order.
func (l *EventLog) Filter(k Kind) []Event {
	var out []Event
	for _, e := range l.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// Reset discards all collected events.
func (l *EventLog) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.evs = l.evs[:0]
}
