package osproc

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"alps/internal/core"
)

// Durable runner state. RunnerState is everything a fresh ALPS instance
// needs to pick up a dead instance's workload mid-cycle: the core
// scheduler snapshot (allowances, carryover, eligibility partition,
// quantum counter), the task→PID bindings with each PID's /proc start
// time (the reuse guard — a restarted scheduler must never signal a PID
// the kernel has since handed to an unrelated process), the set of PIDs
// the dead instance had SIGSTOPped, and the operator-configured quantum
// (the scheduler snapshot's quantum may be overload-stretched).

// PIDRecord identifies one controlled process incarnation: the PID plus
// its /proc start time, which together are unique for the machine's
// uptime.
type PIDRecord struct {
	PID   int    `json:"pid"`
	Start uint64 `json:"start"`
}

// TaskRecord is one task's durable binding.
type TaskRecord struct {
	ID    core.TaskID `json:"id"`
	Share int64       `json:"share"`
	PIDs  []PIDRecord `json:"pids"`
	// PGID is the verified process-group ID when the dead instance was
	// using one-syscall group signalling for this task; restore
	// re-verifies it against the adopted survivors before trusting it.
	PGID int `json:"pgid,omitempty"`
}

// RunnerState is the runner's complete durable state.
type RunnerState struct {
	Sched core.Snapshot `json:"sched"`
	Tasks []TaskRecord  `json:"tasks"`
	// Suspended lists the PIDs the runner had SIGSTOPped when the state
	// was captured (diagnostic; restore re-derives the partition from
	// task eligibility).
	Suspended []int `json:"suspended,omitempty"`
	// BaseQuantum is the operator-configured quantum; Sched.Quantum may
	// be larger if the overload guard had stretched it.
	BaseQuantum time.Duration `json:"base_quantum"`
	// DegradeLevel is the overload-guard level in force at capture.
	DegradeLevel int `json:"degrade_level,omitempty"`
}

// ErrBadState reports a RunnerState that fails validation beyond what
// core snapshot validation covers.
var ErrBadState = errors.New("osproc: invalid runner state")

// State captures the runner's durable state. Safe from any goroutine.
func (r *Runner) State() RunnerState {
	r.loopMu.Lock()
	defer r.loopMu.Unlock()
	return r.stateLocked()
}

func (r *Runner) stateLocked() RunnerState {
	st := RunnerState{
		Sched:        r.sched.Snapshot(),
		BaseQuantum:  r.baseQ,
		DegradeLevel: r.over.level,
	}
	for _, snap := range st.Sched.Tasks {
		m := r.tasks[snap.ID]
		rec := TaskRecord{ID: snap.ID, Share: snap.Share, PGID: m.pgid}
		for _, pid := range m.pids {
			rec.PIDs = append(rec.PIDs, PIDRecord{PID: pid, Start: r.procs[pid].start})
		}
		st.Tasks = append(st.Tasks, rec)
	}
	for pid, p := range r.procs {
		if p.stopped {
			st.Suspended = append(st.Suspended, pid)
		}
	}
	sort.Ints(st.Suspended)
	return st
}

// NewRunnerFromState rebuilds a runner from a dead instance's durable
// state, re-adopting the workload so shares resume mid-cycle instead of
// resetting. cfg's workload-defining fields (Quantum) are taken from the
// state, not cfg; everything else (Sys, Observer, Metrics, callbacks,
// Overload) comes from cfg.
//
// Each recorded PID re-joins its task through join, with its recorded
// start time:
//   - gone or zombie: dropped (counted in Health as vanished);
//   - /proc start time differs from the record: the kernel recycled the
//     PID for an unrelated process — dropped without ever being
//     signalled (counted as reused);
//   - live and verified: CPU accounting is baselined at the *current*
//     counter by that same read (CPU consumed while no scheduler was
//     running is nobody's fault and must not be billed as one quantum's
//     consumption), and its run state is aligned with its task's restored
//     eligibility: a PID found stopped in an eligible task is SIGCONTed
//     (freeing anything the dead instance left SIGSTOPped), a PID of an
//     ineligible task is SIGSTOPped.
//
// Tasks whose every PID was dropped are removed from the restored
// scheduler before the first tick. If no PID at all survives,
// NewRunnerFromState fails with ErrNoLiveProcess (after resuming
// anything it had stopped).
func NewRunnerFromState(cfg Config, st RunnerState) (*Runner, error) {
	if st.BaseQuantum < ClockTick {
		return nil, fmt.Errorf("%w: base quantum %v is below the /proc accounting tick %v",
			ErrBadState, st.BaseQuantum, ClockTick)
	}
	if st.DegradeLevel < 0 {
		return nil, fmt.Errorf("%w: negative degrade level %d", ErrBadState, st.DegradeLevel)
	}
	shares := make(map[core.TaskID]int64, len(st.Sched.Tasks))
	for _, t := range st.Sched.Tasks {
		shares[t.ID] = t.Share
	}
	recs := make(map[core.TaskID]TaskRecord, len(st.Tasks))
	for _, rec := range st.Tasks {
		if sh, ok := shares[rec.ID]; !ok || sh != rec.Share {
			return nil, fmt.Errorf("%w: task record %d disagrees with scheduler snapshot", ErrBadState, rec.ID)
		}
		recs[rec.ID] = rec
	}

	cfg.Quantum = st.BaseQuantum
	r := newRunnerSkeleton(cfg)
	if err := r.sched.Restore(st.Sched); err != nil {
		return nil, err
	}
	r.baseQ = st.BaseQuantum
	// Re-apply the captured degradation level only if the guard is still
	// enabled; otherwise run at the configured quantum.
	level := 0
	if cfg.Overload.Enable {
		level = st.DegradeLevel
		for level > 0 && r.baseQ<<level > r.cfg.Overload.MaxQuantum {
			level--
		}
	}
	r.over.level = level
	effQ := r.baseQ << level
	if err := r.sched.SetQuantum(effQ); err != nil {
		return nil, err
	}
	r.health.effQuantumNS.Store(int64(effQ))
	r.health.degradeLevel.Store(int64(level))

	for _, ts := range st.Sched.Tasks {
		rec := recs[ts.ID]
		m := &members{pgid: rec.PGID}
		r.tasks[ts.ID] = m
		for _, pr := range rec.PIDs {
			_ = r.join(ts.ID, pr.PID, pr.Start)
		}
		if len(m.pids) == 0 {
			_ = r.sched.Remove(ts.ID)
			delete(r.tasks, ts.ID)
		}
	}
	if len(r.procs) == 0 {
		r.Release()
		return nil, ErrNoLiveProcess
	}
	// The dead instance's signals may not all have landed; sweep on the
	// first quantum.
	r.needReconcile = true
	return r, nil
}
