package osproc

import (
	"testing"
	"time"

	"alps/internal/core"
)

// Refresh edge cases, driven through the fault-injecting Sys fake: no
// real processes, deterministic, race-detector friendly.

// TestRefreshUnknownTask: membership reported for a task the scheduler
// does not know (died mid-run, or a buggy Refresh callback) is ignored
// and counted, and its PIDs are not touched.
func TestRefreshUnknownTask(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	fs.AddProc(FaultProc{PID: 99, Start: 1})
	r := newFaultRunner(t, fs, Config{}, []Task{{ID: 1, Share: 1, PIDs: []int{10}}})
	r.refresh(map[core.TaskID][]int{7: {99}})
	checkTable(t, r, fs)
	if h := r.Health(); h.RefreshErrors != 1 {
		t.Errorf("RefreshErrors = %d, want 1", h.RefreshErrors)
	}
	if fs.IsStopped(99) {
		t.Error("refresh stopped a PID belonging to an unknown task")
	}
	if _, ok := r.procs[99]; ok {
		t.Error("unknown task's PID was baselined")
	}
	r.Release()
}

// TestRefreshBaselinesJoiner: a PID with a long CPU history joins a
// task; its history must be baselined away at join time, not billed to
// the task as one quantum's consumption.
func TestRefreshBaselinesJoiner(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	fs.AddProc(FaultProc{PID: 30, Start: 1})
	fs.Proc(30).CPU = 5 * time.Hour // long-running process joins late
	var charged time.Duration
	r := newFaultRunner(t, fs, Config{
		OnCycle: func(rec core.CycleRecord) {
			for _, ct := range rec.Tasks {
				charged += ct.Consumed
			}
		},
	}, []Task{{ID: 1, Share: 1, PIDs: []int{10}}})
	stepQuantum(fs, r) // task eligible
	r.refresh(map[core.TaskID][]int{1: {10, 30}})
	checkTable(t, r, fs)
	if got := r.procs[30].cpu; got < 5*time.Hour {
		t.Errorf("joiner baseline = %v, want >= 5h (history must be baselined away)", got)
	}
	for i := 0; i < 10; i++ {
		stepQuantum(fs, r)
		checkTable(t, r, fs)
	}
	if charged > time.Second {
		t.Errorf("joiner's historical CPU was charged: %v total", charged)
	}
	r.Release()
}

// TestRefreshJoinerOfIneligibleTaskIsStopped: a PID joining a task that
// is currently ineligible must be suspended immediately, or it would
// free-ride until the next eligibility transition.
func TestRefreshJoinerOfIneligibleTaskIsStopped(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	fs.AddProc(FaultProc{PID: 30, Start: 1})
	r := newFaultRunner(t, fs, Config{}, []Task{{ID: 1, Share: 1, PIDs: []int{10}}})
	// Before the first tick the task is still Ineligible (§2.2).
	r.refresh(map[core.TaskID][]int{1: {10, 30}})
	checkTable(t, r, fs)
	if !fs.IsStopped(30) {
		t.Error("joiner of an ineligible task left running")
	}
	if !r.procs[30].stopped {
		t.Error("joiner's suspension not recorded")
	}
	r.Release()
	if len(fs.StoppedPIDs()) != 0 {
		t.Errorf("frozen after Release: %v", fs.StoppedPIDs())
	}
}

// TestRefreshMovesPIDBetweenTasks: a PID moving from one task to another
// keeps its baseline (no re-billing of history) and is aligned with the
// destination task's eligibility state.
func TestRefreshMovesPIDBetweenTasks(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	fs.AddProc(FaultProc{PID: 20, Start: 1})
	r := newFaultRunner(t, fs, Config{}, []Task{
		{ID: 1, Share: 1, PIDs: []int{10}},
		{ID: 2, Share: 1, PIDs: []int{20}},
	})
	stepQuantum(fs, r) // both tasks eligible, PIDs resumed
	base := *r.procs[10]
	// PID 10 moves from task 1 to task 2 (both eligible): baseline
	// must be preserved, no suspension change.
	r.refresh(map[core.TaskID][]int{1: {}, 2: {20, 10}})
	checkTable(t, r, fs)
	if got := *r.procs[10]; got.cpu != base.cpu || got.start != base.start {
		t.Errorf("baseline disturbed by move: %+v != %+v", got, base)
	}
	if fs.IsStopped(10) {
		t.Error("move between eligible tasks suspended the PID")
	}
	if got := memberPIDs(r, 2); len(got) != 2 {
		t.Errorf("destination membership = %v, want [20 10]", got)
	}
	if got := memberPIDs(r, 1); len(got) != 0 {
		t.Errorf("source membership = %v, want empty", got)
	}
	// A PID found stopped when it joins an eligible task is resumed.
	fs.AddProc(FaultProc{PID: 40, Start: 1})
	_ = fs.Stop(40)
	r.refresh(map[core.TaskID][]int{2: {20, 10, 40}})
	checkTable(t, r, fs)
	if fs.IsStopped(40) {
		t.Error("suspended PID joining an eligible task left frozen")
	}
	r.Release()
}

// TestRefreshEmptyMembership: a task whose membership shrinks to nothing
// has its departed PIDs resumed and forgotten, and dies on its next
// measurement instead of haunting the cycle.
func TestRefreshEmptyMembership(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	fs.AddProc(FaultProc{PID: 20, Start: 1})
	r := newFaultRunner(t, fs, Config{}, []Task{
		{ID: 1, Share: 1, PIDs: []int{10}},
		{ID: 2, Share: 1, PIDs: []int{20}},
	})
	// Before the first tick PID 20 is suspended; its task's membership
	// empties (the processes left the user's session).
	r.refresh(map[core.TaskID][]int{2: {}})
	checkTable(t, r, fs)
	if fs.IsStopped(20) {
		t.Error("departed PID left frozen after its membership emptied")
	}
	if _, ok := r.procs[20]; ok {
		t.Error("departed PID still baselined")
	}
	if got := fs.OpenHandles(); len(got) != 1 || got[0] != 10 {
		t.Errorf("open read handles after the departure = %v, want [10]", got)
	}
	done := false
	for i := 0; i < 10 && !done; i++ {
		done = stepQuantum(fs, r)
		checkTable(t, r, fs)
	}
	if r.sched.Len() != 1 {
		t.Errorf("scheduler has %d tasks, want 1 (emptied task must die)", r.sched.Len())
	}
	r.Release()
	requireNoHandles(t, fs)
}

// TestRefreshUninstallableJoiner: a joiner that cannot be baselined
// (vanished between enumeration and refresh) is skipped and counted as
// vanished, as on every other join path; the rest of the membership still
// installs.
func TestRefreshUninstallableJoiner(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	r := newFaultRunner(t, fs, Config{}, []Task{{ID: 1, Share: 1, PIDs: []int{10}}})
	r.refresh(map[core.TaskID][]int{1: {10, 31}}) // 31 does not exist
	checkTable(t, r, fs)
	if h := r.Health(); h.VanishedPIDs != 1 || h.RefreshErrors != 0 {
		t.Errorf("VanishedPIDs = %d, RefreshErrors = %d, want 1 and 0", h.VanishedPIDs, h.RefreshErrors)
	}
	if got := memberPIDs(r, 1); len(got) != 1 || got[0] != 10 {
		t.Errorf("membership = %v, want [10]", got)
	}
	r.Release()
}
