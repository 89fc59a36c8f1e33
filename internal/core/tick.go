package core

import (
	"slices"
	"time"

	"alps/internal/obs"
)

// Reader reports a task's progress since its previous measurement. The
// second result is false when the task no longer exists (e.g. the process
// exited), in which case the scheduler drops the task and reports it in
// Decision.Dead.
type Reader func(TaskID) (Progress, bool)

// TickQuantum runs one invocation of the ALPS algorithm (Figure 3 of the
// paper). The driver calls it once per quantum, passing a Reader that
// measures CPU consumption and blocked state. The returned Decision lists
// the eligibility transitions to enact.
//
// The three stages mirror the pseudo code:
//
//  1. Measure every eligible task that is due (update_i ≤ count), charging
//     its consumption against its allowance and against the cycle time,
//     with an extra quantum charged when the task is observed blocked
//     (§2.4).
//  2. If the cycle time is exhausted, complete the cycle: extend t_c by
//     S·Q and grant every task share_i·Q of new allowance.
//  3. Re-partition tasks into eligible/ineligible by the sign of their
//     allowance, and schedule the next measurement of each just-measured
//     task ⌈allowance/Q⌉ quanta out (§2.3).
//
// Two implementations share the stage bodies. The default indexed path
// does work proportional to what actually happened this quantum: stage 1
// drains exactly the due tasks from a timing wheel of §2.3 wake ticks, and
// stage 3 visits only the tasks whose eligibility could have changed —
// the measured and the newly admitted — falling back to one full sweep
// on the (once-per-cycle) grant quanta, where every task's allowance
// moved anyway. The reference path (Config.DisableIndexing, implied by
// DisableLazySampling) scans all N tasks per stage, exactly as the seed
// implementation did. Both paths emit byte-identical obs event streams
// and identical Decisions; the equivalence property test holds them to
// that, and the §4.2 scale benchmark measures the gap between them.
//
// When cfg.Observer is set, each stage additionally emits one obs.Event
// per decision, and each stage is bracketed by KindPhaseBegin/End
// markers (PhaseSample/PhaseCharge/PhaseDecide) so substrate-stamped
// streams carry per-phase timing for the tracing layer (internal/trace).
// Every emission site is guarded by a nil check and events are flat
// value structs, so a disabled observer costs one predictable branch per
// site and zero allocations.
func (s *Scheduler) TickQuantum(read Reader) Decision {
	if s.indexed {
		return s.tickIndexed(read)
	}
	return s.tickReference(read)
}

// DueTasks returns, in ascending ID order, the tasks the next TickQuantum
// will measure in stage 1: the eligible tasks whose §2.3 wake tick has
// arrived (every eligible task when lazy sampling is disabled). Drivers
// use it to prefetch the measurements concurrently before invoking the
// algorithm. The returned slice is owned by the scheduler and valid only
// until the next TickQuantum; registration changes between the two calls
// are tolerated (stage 1 revalidates), they just waste the prefetch.
func (s *Scheduler) DueTasks() []TaskID {
	if len(s.tasks) == 0 {
		return nil
	}
	s.prepareDue(s.count + 1)
	return s.dueBatch
}

// prepareDue populates s.dueBatch with the tasks due for measurement at
// the given tick, ascending by ID. Idempotent per tick; shared by
// DueTasks (prefetch) and the indexed stage 1.
func (s *Scheduler) prepareDue(tick int64) {
	if s.duePrepared == tick {
		return
	}
	if s.indexed && s.duePrepared != 0 {
		// A batch prepared for an earlier tick was never consumed by a
		// TickQuantum (the driver called DueTasks and then skipped the
		// tick). Its entries were drained from the index; re-arm them so
		// the tasks are not silently lost from the measurement schedule.
		for _, id := range s.dueBatch {
			if t, ok := s.tasks[id]; ok && t.state == Eligible {
				s.due.push(dueEntry{wake: t.update, id: id})
			}
		}
	}
	s.dueBatch = s.dueBatch[:0]
	s.duePrepared = tick
	if !s.indexed {
		for _, id := range s.order.all() {
			t := s.tasks[id]
			if t.state != Eligible {
				continue
			}
			if !s.cfg.DisableLazySampling && t.update > tick {
				continue
			}
			s.dueBatch = append(s.dueBatch, id)
		}
		return
	}
	// Lazily invalidated entries (removed, re-measured, or turned
	// ineligible tasks) are normally discarded as they drain, but a
	// membership-churn storm can strand far-future stales faster than
	// drains retire them; rebuild the index outright once they outnumber
	// the live entries (at most one per eligible task), bounding index
	// memory at O(eligible) regardless of churn.
	if s.due.len() > 2*s.eligible+compactSlack {
		s.compactDue(tick)
	}
	s.drainBuf = s.due.drain(tick, s.drainBuf[:0])
	for _, e := range s.drainBuf {
		t, live := s.tasks[e.id]
		if !live || t.state != Eligible || t.update != e.wake || t.dueTick == tick {
			continue // stale or duplicate entry
		}
		t.dueTick = tick
		s.dueBatch = append(s.dueBatch, e.id)
	}
	// Index drain order (wheel slot order) must never
	// reach the event stream: the batch is ID-sorted before any
	// measurement happens.
	slices.Sort(s.dueBatch)
}

// compactSlack keeps tiny schedulers from rebuilding the index on every
// quantum when a handful of stale entries already exceeds 2×eligible.
const compactSlack = 64

// compactDue rebuilds the due index strictly from live task state,
// discarding every lazily invalidated entry. Re-anchoring at tick means
// already-due wake ticks land in the index's past bucket and surface in
// this quantum's drain, so compaction never perturbs the measurement
// schedule.
func (s *Scheduler) compactDue(tick int64) {
	s.due.reset(tick)
	for _, id := range s.order.all() {
		t := s.tasks[id]
		if t.state == Eligible {
			s.due.push(dueEntry{wake: t.update, id: id})
		}
	}
}

// beginDecision hands out a Decision backed by the scheduler's scratch
// slices (all length 0). endDecision must be called on every path that
// returns it.
func (s *Scheduler) beginDecision() Decision {
	return Decision{
		Resume:   s.decResume[:0],
		Suspend:  s.decSuspend[:0],
		Measured: s.decMeasured[:0],
		Dead:     s.decDead[:0],
	}
}

// endDecision saves the (possibly grown) scratch back onto the scheduler
// and normalizes empty fields to nil, preserving the pre-scratch
// contract that a field with no entries is nil (tests and drivers
// DeepEqual against that shape).
func (s *Scheduler) endDecision(d *Decision) {
	s.decResume, s.decSuspend, s.decMeasured, s.decDead = d.Resume, d.Suspend, d.Measured, d.Dead
	if len(d.Resume) == 0 {
		d.Resume = nil
	}
	if len(d.Suspend) == 0 {
		d.Suspend = nil
	}
	if len(d.Measured) == 0 {
		d.Measured = nil
	}
	if len(d.Dead) == 0 {
		d.Dead = nil
	}
}

// tickIndexed is the O(due)-work implementation of TickQuantum.
func (s *Scheduler) tickIndexed(read Reader) Decision {
	if len(s.tasks) == 0 {
		return Decision{}
	}
	d := s.beginDecision()
	o := s.cfg.Observer
	s.count++
	if o != nil {
		o.Observe(obs.Event{Kind: obs.KindQuantumStart, Tick: s.count, Task: -1, N: len(s.tasks)})
		s.phaseMark(o, obs.KindPhaseBegin, obs.PhaseSample)
	}

	// Stage 1: measure exactly the due tasks. Each batch entry is
	// revalidated against the live task state, so a Remove between a
	// DueTasks prefetch and this tick cannot resurrect a task.
	s.prepareDue(s.count)
	for _, id := range s.dueBatch {
		t, ok := s.tasks[id]
		if !ok || t.state != Eligible || t.update > s.count {
			continue
		}
		p, alive := read(id)
		if !alive {
			d.Dead = append(d.Dead, id)
			continue
		}
		d.Measured = append(d.Measured, id)
		s.charge(t, p, o)
	}
	s.dueBatch = s.dueBatch[:0]
	s.duePrepared = 0 // batch consumed; nothing to re-arm
	for _, id := range d.Dead {
		// Remove cannot fail here: the ID was just iterated.
		_ = s.Remove(id)
		if o != nil {
			o.Observe(obs.Event{Kind: obs.KindDead, Tick: s.count, Task: int64(id)})
		}
	}
	if o != nil {
		s.phaseMark(o, obs.KindPhaseEnd, obs.PhaseSample)
	}
	if len(s.tasks) == 0 {
		if o != nil {
			o.Observe(obs.Event{Kind: obs.KindQuantumEnd, Tick: s.count, Task: -1, Cycle: int64(s.cycles)})
		}
		s.endDecision(&d)
		return d
	}

	// Stage 2: cycle completion and allowance grants (full sweep, but at
	// most once per cycle).
	if o != nil {
		s.phaseMark(o, obs.KindPhaseBegin, obs.PhaseCharge)
	}
	grants := s.grantIfDue(o, &d)
	if o != nil {
		s.phaseMark(o, obs.KindPhaseEnd, obs.PhaseCharge)
		s.phaseMark(o, obs.KindPhaseBegin, obs.PhaseDecide)
	}

	// Stage 3: re-partition and schedule next measurements. On grant
	// quanta every allowance moved, so sweep everything; otherwise only
	// the measured and the newly admitted tasks can have changed —
	// unvisited ineligible tasks keep a stale update tick, which is
	// harmless because it stays ≤ count until the grant sweep that can
	// actually flip them recomputes it.
	if grants > 0 {
		for _, id := range s.order.all() {
			s.stage3(s.tasks[id], grants, o, &d)
		}
		s.admit = s.admit[:0]
	} else {
		s.visit = append(s.visit[:0], d.Measured...)
		if len(s.admit) > 0 {
			for _, id := range s.admit {
				if t, ok := s.tasks[id]; ok && t.pendingAdmit {
					s.visit = append(s.visit, id)
				}
			}
			s.admit = s.admit[:0]
			slices.Sort(s.visit)
		}
		for _, id := range s.visit {
			s.stage3(s.tasks[id], grants, o, &d)
		}
	}
	if o != nil {
		s.phaseMark(o, obs.KindPhaseEnd, obs.PhaseDecide)
		o.Observe(obs.Event{
			Kind:  obs.KindQuantumEnd,
			Tick:  s.count,
			Task:  -1,
			N:     len(d.Measured),
			Cycle: int64(s.cycles),
		})
	}
	s.endDecision(&d)
	return d
}

// tickReference is the retained seed implementation: every stage scans
// all N tasks. It is the oracle the equivalence property test runs the
// indexed path against, and the baseline the scale benchmark measures.
func (s *Scheduler) tickReference(read Reader) Decision {
	if len(s.tasks) == 0 {
		return Decision{}
	}
	d := s.beginDecision()
	o := s.cfg.Observer
	s.count++
	if o != nil {
		o.Observe(obs.Event{Kind: obs.KindQuantumStart, Tick: s.count, Task: -1, N: len(s.tasks)})
		s.phaseMark(o, obs.KindPhaseBegin, obs.PhaseSample)
	}

	// Stage 1: measurement loop.
	for _, id := range s.order.all() {
		t := s.tasks[id]
		if t.state != Eligible {
			continue
		}
		if !s.cfg.DisableLazySampling && t.update > s.count {
			continue
		}
		p, ok := read(id)
		if !ok {
			d.Dead = append(d.Dead, id)
			continue
		}
		d.Measured = append(d.Measured, id)
		s.charge(t, p, o)
	}
	for i := 0; i < len(d.Dead); i++ {
		// Remove mutates s.order, so the dead are collected first and
		// removed after the scan (by index: Remove cannot fail here).
		id := d.Dead[i]
		_ = s.Remove(id)
		if o != nil {
			o.Observe(obs.Event{Kind: obs.KindDead, Tick: s.count, Task: int64(id)})
		}
	}
	if o != nil {
		s.phaseMark(o, obs.KindPhaseEnd, obs.PhaseSample)
	}
	if len(s.tasks) == 0 {
		if o != nil {
			o.Observe(obs.Event{Kind: obs.KindQuantumEnd, Tick: s.count, Task: -1, Cycle: int64(s.cycles)})
		}
		s.endDecision(&d)
		return d
	}

	// Stage 2: cycle completion and allowance grants.
	if o != nil {
		s.phaseMark(o, obs.KindPhaseBegin, obs.PhaseCharge)
	}
	grants := s.grantIfDue(o, &d)
	if o != nil {
		s.phaseMark(o, obs.KindPhaseEnd, obs.PhaseCharge)
		s.phaseMark(o, obs.KindPhaseBegin, obs.PhaseDecide)
	}

	// Stage 3: re-partition and schedule next measurements.
	for _, id := range s.order.all() {
		s.stage3(s.tasks[id], grants, o, &d)
	}
	if o != nil {
		s.phaseMark(o, obs.KindPhaseEnd, obs.PhaseDecide)
		o.Observe(obs.Event{
			Kind:  obs.KindQuantumEnd,
			Tick:  s.count,
			Task:  -1,
			N:     len(d.Measured),
			Cycle: int64(s.cycles),
		})
	}
	s.endDecision(&d)
	return d
}

// charge applies one measurement to a task: consumption against the
// allowance and the cycle time, the §2.4 blocked charge, per-cycle
// instrumentation, and the measure event.
func (s *Scheduler) charge(t *task, p Progress, o obs.Observer) {
	q := s.cfg.Quantum
	t.allowance -= p.Consumed
	s.cycleTime -= p.Consumed
	t.cycleConsumed += p.Consumed
	if p.Blocked {
		t.allowance -= q
		s.cycleTime -= q
		t.cycleBlocked++
		t.blocked = true
	} else if p.Consumed > 0 {
		t.blocked = false
	}
	if o != nil {
		o.Observe(obs.Event{
			Kind:      obs.KindMeasure,
			Tick:      s.count,
			Task:      int64(t.id),
			Consumed:  p.Consumed,
			Blocked:   p.Blocked,
			Allowance: t.allowance,
		})
	}
}

// grantIfDue runs stage 2: when the cycle time is exhausted it completes
// the cycle and grants every task share_i·Q, returning 1; otherwise 0.
func (s *Scheduler) grantIfDue(o obs.Observer, d *Decision) int {
	if s.cycleTime > 0 {
		return 0
	}
	q := s.cfg.Quantum
	s.cycleTime += s.CycleLength()
	s.emitCycle()
	if o != nil {
		o.Observe(obs.Event{
			Kind:   obs.KindCycle,
			Tick:   s.count,
			Task:   -1,
			Cycle:  int64(s.cycles),
			N:      len(s.tasks),
			Length: s.CycleLength(),
		})
	}
	s.cycles++
	d.CycleCompleted = true
	for _, id := range s.order.all() {
		t := s.tasks[id]
		carry := t.allowance
		t.allowance += time.Duration(t.share) * q
		if o != nil {
			o.Observe(obs.Event{
				Kind:      obs.KindGrant,
				Tick:      s.count,
				Task:      int64(id),
				Cycle:     int64(s.cycles - 1),
				Carry:     carry,
				Allowance: t.allowance,
			})
		}
	}
	return 1
}

// stage3 re-partitions one task by the sign of its allowance and, when
// its measurement tick has arrived, schedules the next one (§2.3). Both
// implementations funnel through here, so transition reasons, postpone
// events, and due-index maintenance cannot drift apart.
func (s *Scheduler) stage3(t *task, grants int, o obs.Observer, d *Decision) {
	next := Ineligible
	if t.allowance > 0 {
		next = Eligible
	}
	if next != t.state {
		t.state = next
		if next == Eligible {
			s.eligible++
			d.Resume = append(d.Resume, t.id)
		} else {
			s.eligible--
			d.Suspend = append(d.Suspend, t.id)
		}
		if o != nil {
			reason := obs.ReasonExhausted
			switch {
			case next == Eligible && t.pendingAdmit:
				// Admission outranks a same-quantum cycle grant: the
				// task's initial allowance was already positive, so the
				// grant is not what made it runnable.
				reason = obs.ReasonAdmitted
			case next == Eligible && grants > 0:
				reason = obs.ReasonGrant
			case next == Eligible:
				reason = obs.ReasonAdmitted
			case t.blocked:
				reason = obs.ReasonBlocked
			}
			o.Observe(obs.Event{
				Kind:      obs.KindTransition,
				Tick:      s.count,
				Task:      int64(t.id),
				Eligible:  next == Eligible,
				Reason:    reason,
				Allowance: t.allowance,
			})
		}
	}
	t.pendingAdmit = false
	if t.update <= s.count {
		if t.blocked {
			// A task observed blocked is rechecked every quantum
			// until it is seen consuming again. The ceil(allowance)
			// postponement's premise — allowance drains no faster
			// than the task can consume — fails for blocked tasks,
			// whose §2.4 charges accrue only at measurements:
			// postponing would let a blocked task with a large
			// allowance hold the cycle open while the rest of the
			// workload sits exhausted.
			t.update = s.count + 1
		} else {
			t.update = s.count + ceilDiv(t.allowance, s.cfg.Quantum)
			if o != nil && t.update > s.count+1 {
				o.Observe(obs.Event{
					Kind:      obs.KindPostpone,
					Tick:      s.count,
					Task:      int64(t.id),
					Allowance: t.allowance,
					Wake:      t.update,
				})
			}
		}
		if s.indexed && t.state == Eligible {
			s.due.push(dueEntry{wake: t.update, id: t.id})
		}
	}
}

// phaseMark emits one phase boundary marker for the tracing layer.
func (s *Scheduler) phaseMark(o obs.Observer, k obs.Kind, p obs.Phase) {
	o.Observe(obs.Event{Kind: k, Tick: s.count, Task: -1, N: int(p)})
}

// emitCycle flushes per-cycle instrumentation to the OnCycle callback and
// resets the accumulators.
func (s *Scheduler) emitCycle() {
	if s.cfg.OnCycle == nil {
		for _, t := range s.tasks {
			t.cycleConsumed = 0
			t.cycleBlocked = 0
		}
		return
	}
	rec := CycleRecord{
		Index:  s.cycles,
		Tick:   s.count,
		Length: s.CycleLength(),
		Tasks:  make([]CycleTask, 0, s.order.len()),
	}
	for _, id := range s.order.all() {
		t := s.tasks[id]
		rec.Tasks = append(rec.Tasks, CycleTask{
			ID:            id,
			Share:         t.share,
			Consumed:      t.cycleConsumed,
			BlockedQuanta: t.cycleBlocked,
		})
		t.cycleConsumed = 0
		t.cycleBlocked = 0
	}
	s.cfg.OnCycle(rec)
}

// ceilDiv returns ⌈a/b⌉ for positive b, correct for negative a and safe
// at the extremes: the naive (a + b - 1) / b overflows time.Duration for
// allowances near the type's ceiling (a huge share × quantum after a
// reconfiguration), which would produce a negative wake tick and an
// immediate re-measure storm.
func ceilDiv(a, b time.Duration) int64 {
	if a <= 0 {
		return int64(a / b)
	}
	k := a / b
	if a%b != 0 {
		k++
	}
	return int64(k)
}
