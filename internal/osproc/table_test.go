package osproc

import (
	"testing"
	"time"

	"alps/internal/core"
)

// Helpers that read the runner's process table. checkTable is the
// table's invariant check; the runner-invariant tests call it after every
// Step.

// memberPIDs returns task id's member PIDs in order, or nil when the
// runner holds no entry for the task.
func memberPIDs(r *Runner, id core.TaskID) []int {
	if m := r.tasks[id]; m != nil {
		return m.pids
	}
	return nil
}

// checkTable asserts four invariants of the process table against the
// fake:
//   - member PIDs and records correspond one to one (each record names
//     the task that lists it), as do task entries and scheduler tasks;
//   - every record marked stopped is a live PID the fake has stopped;
//   - every PID the fake has stopped is in the table, or was dropped as
//     unsignalable: at most Health.UnsignalablePIDs of them are not;
//   - Σallowance ≡ t_c, the cycle time remaining.
func checkTable(t *testing.T, r *Runner, fs *FaultSys) {
	t.Helper()
	r.loopMu.Lock()
	defer r.loopMu.Unlock()
	tick := r.sched.Tick()
	listed := make(map[int]bool, len(r.procs))
	for id, m := range r.tasks {
		if _, err := r.sched.State(id); err != nil {
			t.Errorf("tick %d: runner holds an entry for task %d, which the scheduler does not know", tick, id)
		}
		for _, pid := range m.pids {
			if listed[pid] {
				t.Errorf("tick %d: pid %d is listed twice", tick, pid)
			}
			listed[pid] = true
			if p := r.procs[pid]; p == nil {
				t.Errorf("tick %d: task %d lists pid %d, which has no record", tick, id, pid)
			} else if p.task != id {
				t.Errorf("tick %d: task %d lists pid %d, whose record names task %d", tick, id, pid, p.task)
			}
		}
	}
	for pid := range r.procs {
		if !listed[pid] {
			t.Errorf("tick %d: pid %d has a record but no task lists it", tick, pid)
		}
	}
	var sum time.Duration
	for _, id := range r.sched.TaskIDs() {
		if r.tasks[id] == nil {
			t.Errorf("tick %d: scheduler task %d has no runner entry", tick, id)
		}
		a, _ := r.sched.Allowance(id)
		sum += a
	}
	if tc := r.sched.CycleTimeRemaining(); sum != tc {
		t.Errorf("tick %d: Σallowance %v != t_c %v", tick, sum, tc)
	}
	for pid, p := range r.procs {
		if p.stopped && !fs.IsStopped(pid) {
			t.Errorf("tick %d: pid %d is recorded stopped, but the fake has it running or gone", tick, pid)
		}
	}
	var outside []int
	for _, pid := range fs.StoppedPIDs() {
		if r.procs[pid] == nil {
			outside = append(outside, pid)
		}
	}
	if n := r.health.unsignalable.Load(); int64(len(outside)) > n {
		t.Errorf("tick %d: stopped pids %v are outside the table, but only %d were dropped as unsignalable", tick, outside, n)
	}
}
