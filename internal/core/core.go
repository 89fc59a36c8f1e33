package core

import (
	"errors"
	"fmt"
	"time"

	"alps/internal/obs"
)

// TaskID identifies a task under ALPS control. A task is the unit of
// scheduling: a single process, or — in resource-principal mode (paper §5)
// — a whole group of processes whose consumption is pooled by the driver.
type TaskID int64

// State is the eligibility state of a task (paper §2.2).
type State int8

const (
	// Ineligible tasks have exhausted their allowance for the current
	// cycle and are suspended (SIGSTOP in the UNIX implementation).
	Ineligible State = iota
	// Eligible tasks have positive allowance and contend for the CPU
	// under the kernel scheduler's native policy.
	Eligible
)

// String returns "eligible" or "ineligible".
func (s State) String() string {
	if s == Eligible {
		return "eligible"
	}
	return "ineligible"
}

// Progress reports a task's execution status since it was last measured,
// as observed by the driver (READ-PROGRESS in the paper's pseudo code).
type Progress struct {
	// Consumed is the CPU time the task consumed since the previous
	// measurement of this task.
	Consumed time.Duration
	// Blocked reports whether the task is currently blocked on an event
	// (e.g. I/O). The paper reads the process's kernel "wait channel";
	// the Linux driver reads the run state in /proc/<pid>/stat.
	Blocked bool
}

// Config parameterizes a Scheduler.
type Config struct {
	// Quantum is the ALPS quantum Q: the period between invocations of
	// the algorithm. It is the primary accuracy/overhead knob (paper
	// §2.1). Must be positive.
	Quantum time.Duration

	// DisableLazySampling turns off the Section 2.3 optimization so
	// that every eligible task is measured on every quantum. Used only
	// as the baseline for the overhead comparison in Section 3.2.
	// Implies DisableIndexing: the due index's premise is that most
	// eligible tasks are *not* due, which lazy sampling provides.
	DisableLazySampling bool

	// DisableIndexing forces the reference O(N)-per-quantum
	// implementation of the algorithm: stage 1 scans every task to find
	// the due ones and stage 3 re-partitions the whole set, exactly as
	// the seed implementation did. The default (indexed) path visits
	// only due, measured, granted, or newly admitted tasks per quantum
	// and must emit a byte-identical event stream and identical
	// Decisions; the reference path is retained as the oracle for the
	// equivalence property test and as the baseline the §4.2 scale
	// benchmark measures the indexed loop against.
	DisableIndexing bool

	// OnCycle, if non-nil, is invoked at the completion of every cycle
	// with a record of the CPU time attributed to each task during that
	// cycle. This is the instrumentation the paper uses for its
	// accuracy evaluation (§3.1). The record's slices are owned by the
	// callee.
	OnCycle func(CycleRecord)

	// Observer, if non-nil, receives a structured obs.Event at each
	// step of the Figure 3 algorithm: quantum start/end, measurements
	// taken (with consumption, blocked state, and post-charge
	// allowance), postponements (with the predicted wake quantum),
	// per-cycle grants (with the §2.2 carryover), and every eligibility
	// transition with its reason. Both substrates feed the same
	// observer, so one tracer explains why a process was stopped in the
	// simulator and on a live host alike. When nil, the emission sites
	// reduce to a branch: the quantum loop performs no observability
	// work and no allocation.
	Observer obs.Observer
}

// CycleRecord logs one completed cycle (paper §3.1 instrumentation).
type CycleRecord struct {
	// Index is the cycle number, starting at 0.
	Index int
	// Tick is the value of the quantum counter when the cycle completed.
	Tick int64
	// Length is the nominal cycle length S·Q at completion time.
	Length time.Duration
	// Tasks holds the per-task consumption attributed to the cycle,
	// ordered by TaskID.
	Tasks []CycleTask
}

// CycleTask is one task's entry in a CycleRecord.
type CycleTask struct {
	ID TaskID
	// Share is the task's share count.
	Share int64
	// Consumed is the CPU time attributed to the task during the cycle.
	// Under lazy sampling, consumption is attributed to the cycle in
	// which it is measured, exactly as the paper's instrumented ALPS
	// logs it.
	Consumed time.Duration
	// BlockedQuanta counts the quanta for which the task was observed
	// blocked during the cycle (each reduced its allowance by Q).
	BlockedQuanta int
}

// task is the per-process state block of Figure 3.
type task struct {
	id    TaskID
	share int64 // share_i

	state     State         // state_i
	allowance time.Duration // allowance_i, in time units (quanta × Q)
	update    int64         // update_i: tick index of next measurement
	blocked   bool          // observed blocked more recently than consuming

	// pendingAdmit marks a task registered (by Add or Restore) but not
	// yet processed by a stage-3 repartition. It drives two things: the
	// transition reason for the task's first eligibility flip is
	// ReasonAdmitted even when a cycle grant lands the same quantum
	// (admission, not the grant, is why it became runnable — its initial
	// allowance was already positive), and the indexed path uses it to
	// know the task must be visited in stage 3 without having been
	// measured.
	pendingAdmit bool

	// dueTick is the last tick this task was collected into a due
	// batch; it deduplicates coincidentally matching stale due entries
	// (indexed path only).
	dueTick int64

	// Per-cycle instrumentation.
	cycleConsumed time.Duration
	cycleBlocked  int
}

// Decision is the outcome of one Tick: the eligibility transitions the
// driver must enact before the next quantum begins.
//
// Ownership: the slices are backed by scheduler-owned scratch reused
// across ticks (the steady-state quantum loop performs zero
// allocations), so they are valid only until the next TickQuantum on
// the same scheduler. Drivers that retain a Decision across quanta must
// copy the slices they keep. Empty fields are always nil.
type Decision struct {
	// Resume lists tasks that transitioned ineligible → eligible and
	// must be made runnable (SIGCONT).
	Resume []TaskID
	// Suspend lists tasks that transitioned eligible → ineligible and
	// must be stopped (SIGSTOP).
	Suspend []TaskID
	// Measured lists the tasks whose progress was read this quantum
	// (useful for overhead accounting by the driver).
	Measured []TaskID
	// Dead lists tasks the Reader reported gone; they have been
	// deregistered from the scheduler.
	Dead []TaskID
	// CycleCompleted reports whether this tick completed a cycle.
	CycleCompleted bool
}

// Scheduler is an ALPS proportional-share scheduler instance. It is not
// safe for concurrent use; drivers serialize calls on their own loop.
type Scheduler struct {
	cfg Config

	tasks map[TaskID]*task
	order orderedIDs // always-sorted IDs, for deterministic iteration

	totalShares int64         // S
	cycleTime   time.Duration // t_c
	count       int64         // quantum counter
	cycles      int           // completed cycle count

	indexed bool // the O(due) path is active (see Config.DisableIndexing)

	// eligible counts tasks currently in the Eligible state. It bounds
	// the number of live entries in the due index, so prepareDue uses it
	// to decide when lazily invalidated entries have accumulated past the
	// compaction threshold.
	eligible int

	// Indexed-path state (see index.go and wheel.go): the measurement
	// due index (nil on the reference path), the admission queue of tasks
	// awaiting their first stage-3 visit, the prepared due batch with the
	// tick it was prepared for (0 = none), and scratch slices for the
	// index drain and stage 3's visit list.
	due         *dueWheel
	admit       []TaskID
	dueBatch    []TaskID
	duePrepared int64
	visit       []TaskID
	drainBuf    []dueEntry

	// Decision scratch, reused across ticks so the steady-state quantum
	// loop allocates nothing (see the Decision ownership contract).
	decResume   []TaskID
	decSuspend  []TaskID
	decMeasured []TaskID
	decDead     []TaskID
}

// ErrTaskExists is returned by Add for a duplicate TaskID.
var ErrTaskExists = errors.New("core: task already registered")

// ErrNoTask is returned for operations on an unknown TaskID.
var ErrNoTask = errors.New("core: no such task")

// ErrBadShare is returned when a share count is not positive.
var ErrBadShare = errors.New("core: share must be positive")

// New creates a Scheduler. It panics if cfg.Quantum is not positive, since
// that is a programming error rather than a runtime condition.
func New(cfg Config) *Scheduler {
	if cfg.Quantum <= 0 {
		panic("core: Config.Quantum must be positive")
	}
	s := &Scheduler{
		cfg:     cfg,
		tasks:   make(map[TaskID]*task),
		indexed: !cfg.DisableIndexing && !cfg.DisableLazySampling,
	}
	if s.indexed {
		s.due = newDueWheel()
	}
	return s
}

// Quantum returns the configured ALPS quantum Q.
func (s *Scheduler) Quantum() time.Duration { return s.cfg.Quantum }

// TotalShares returns S, the sum of all registered tasks' shares.
func (s *Scheduler) TotalShares() int64 { return s.totalShares }

// CycleLength returns the nominal cycle length S·Q.
func (s *Scheduler) CycleLength() time.Duration {
	return time.Duration(s.totalShares) * s.cfg.Quantum
}

// Cycles returns the number of completed cycles.
func (s *Scheduler) Cycles() int { return s.cycles }

// Tick returns the number of quanta serviced so far (the paper's count).
func (s *Scheduler) Tick() int64 { return s.count }

// Len returns the number of registered tasks.
func (s *Scheduler) Len() int { return len(s.tasks) }

// Tasks returns the registered task IDs in ascending order. The slice
// is freshly allocated and owned by the caller; hot paths that only
// iterate should use TaskIDs instead.
func (s *Scheduler) Tasks() []TaskID {
	out := make([]TaskID, s.order.len())
	copy(out, s.order.all())
	return out
}

// TaskIDs returns the registered task IDs in ascending order without
// copying. The slice is owned by the scheduler and valid only until the
// next registration change (Add, Remove, a tick that drops dead tasks,
// or Restore); callers iterate but never mutate or retain it.
func (s *Scheduler) TaskIDs() []TaskID { return s.order.all() }

// Share returns the share count of the given task.
func (s *Scheduler) Share(id TaskID) (int64, error) {
	t, ok := s.tasks[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoTask, id)
	}
	return t.share, nil
}

// State returns the eligibility state of the given task.
func (s *Scheduler) State(id TaskID) (State, error) {
	t, ok := s.tasks[id]
	if !ok {
		return Ineligible, fmt.Errorf("%w: %d", ErrNoTask, id)
	}
	return t.state, nil
}

// Allowance returns the task's remaining allowance for the current cycle,
// in time units (quanta × Q).
func (s *Scheduler) Allowance(id TaskID) (time.Duration, error) {
	t, ok := s.tasks[id]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoTask, id)
	}
	return t.allowance, nil
}

// CycleTimeRemaining returns t_c, the CPU time remaining before the
// current cycle completes.
func (s *Scheduler) CycleTimeRemaining() time.Duration { return s.cycleTime }

// Add registers a task with the given share count. Per the paper (§2.2),
// the task's allowance is initialized to its share (share·Q in time units)
// and its state to ineligible; it becomes eligible on the next quantum.
// The current cycle is extended by share·Q so that in-flight guarantees
// for existing tasks are preserved.
func (s *Scheduler) Add(id TaskID, share int64) error {
	if share <= 0 {
		return fmt.Errorf("%w: task %d share %d", ErrBadShare, id, share)
	}
	if _, ok := s.tasks[id]; ok {
		return fmt.Errorf("%w: %d", ErrTaskExists, id)
	}
	grant := time.Duration(share) * s.cfg.Quantum
	s.tasks[id] = &task{
		id:           id,
		share:        share,
		state:        Ineligible,
		allowance:    grant,
		update:       s.count, // due for measurement immediately once eligible
		pendingAdmit: true,
	}
	s.order.insert(id)
	if s.indexed {
		s.admit = append(s.admit, id)
	}
	s.totalShares += share
	s.cycleTime += grant
	return nil
}

// Remove deregisters a task, settling its allowance against the cycle
// time: an unspent allowance shrinks the cycle (that CPU will never be
// claimed), an unpaid debt extends it (the departed task overconsumed at
// the others' expense, and they still deserve their full allowances).
// This keeps the Σallowances ≡ t_c bookkeeping identity exact.
func (s *Scheduler) Remove(id TaskID) error {
	t, ok := s.tasks[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoTask, id)
	}
	s.cycleTime -= t.allowance
	s.totalShares -= t.share
	if t.state == Eligible {
		s.eligible--
	}
	delete(s.tasks, id)
	// Stale due-index and admission-queue entries are invalidated lazily:
	// both consumption paths re-check the live task state, and prepareDue
	// compacts the index when stales outnumber live entries.
	s.order.remove(id)
	return nil
}

// SetShare changes a task's share count. The change takes effect from the
// next cycle's allowance grant: the task's current allowance and the
// remaining cycle time are left untouched, so re-weighting never jolts
// in-flight eligibility (important for feedback controllers that adjust
// shares every cycle) and the Σallowances ≡ t_c bookkeeping identity is
// preserved.
func (s *Scheduler) SetShare(id TaskID, share int64) error {
	if share <= 0 {
		return fmt.Errorf("%w: task %d share %d", ErrBadShare, id, share)
	}
	t, ok := s.tasks[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoTask, id)
	}
	s.totalShares += share - t.share
	t.share = share
	return nil
}
