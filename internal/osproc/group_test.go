package osproc

import (
	"strings"
	"sync"
	"testing"
	"time"

	"alps/internal/core"
	"alps/internal/obs"
)

// Group-signaling tests: a §5 resource principal whose members share a
// process group must cost one kill(-pgid) syscall per eligibility flip,
// and every partial-delivery corner (a member exiting mid-kill, a member
// the kernel silently skips, a group call failing outright) must settle
// without double-charged strikes or survivors left SIGSTOPped.

// addGroup installs members PIDs leader..leader+n-1 in process group
// `leader` and returns the Task claiming it.
func addGroup(fs *FaultSys, id core.TaskID, share int64, leader, n int) Task {
	var pids []int
	for i := 0; i < n; i++ {
		fs.AddProc(FaultProc{PID: leader + i, PGID: leader, Start: uint64(leader + i)})
		pids = append(pids, leader+i)
	}
	return Task{ID: id, Share: share, PIDs: pids, PGID: leader}
}

// sigLogLines counts per-PID and group signal log lines in fs.Log[from:].
func sigLogLines(fs *FaultSys, from int) (perPID, group int) {
	for _, line := range fs.Log[from:] {
		switch {
		case strings.HasPrefix(line, "stopg ") || strings.HasPrefix(line, "contg "):
			group++
		case strings.HasPrefix(line, "stop ") || strings.HasPrefix(line, "cont "):
			perPID++
		}
	}
	return perPID, group
}

// TestGroupSignalingOneSyscallPerFlip is the bench gate's unit-level
// twin: once the workload is adopted, every eligibility flip of a
// group-owning principal is exactly one signal syscall, independent of
// member count, and no per-PID stop/cont ever appears on the fast path.
func TestGroupSignalingOneSyscallPerFlip(t *testing.T) {
	fs := NewFaultSys()
	fs.SharedCPU = true
	log := obs.NewEventLog()
	tasks := []Task{
		addGroup(fs, 1, 1, 1000, 20),
		addGroup(fs, 2, 2, 2000, 20),
		addGroup(fs, 3, 5, 3000, 20),
	}
	r := newFaultRunner(t, fs, Config{Observer: log}, tasks)
	base := fs.SignalSyscalls()
	logMark := len(fs.Log)
	for i := 0; i < 80; i++ {
		stepQuantum(fs, r)
	}
	flips := len(core.TransitionsOf(log.Events()))
	delta := fs.SignalSyscalls() - base
	if flips == 0 {
		t.Fatal("workload never flipped eligibility; test exercises nothing")
	}
	if delta != int64(flips) {
		t.Errorf("signal syscalls = %d for %d eligibility flips, want exactly 1 per flip", delta, flips)
	}
	perPID, group := sigLogLines(fs, logMark)
	if perPID != 0 {
		t.Errorf("%d per-PID signals on the steady-state path, want 0 (group kills only)", perPID)
	}
	if group == 0 {
		t.Error("no group kills logged despite verified process groups")
	}
	r.Release()
	if got := fs.StoppedPIDs(); len(got) != 0 {
		t.Errorf("PIDs left frozen after release: %v", got)
	}
}

// TestGroupPartialESRCHLeavesNoSurvivorFrozen scripts the satellite's
// partial-delivery hazard: kill(-pgid, SIGCONT) succeeds (POSIX: at
// least one member signalled) while one member misses the signal. The
// runner must detect the frozen survivor at its next measurement and
// re-align it — charging no strikes for a delivery the group call never
// reported failed.
func TestGroupPartialESRCHLeavesNoSurvivorFrozen(t *testing.T) {
	fs := NewFaultSys()
	tasks := []Task{addGroup(fs, 1, 2, 500, 3), addGroup(fs, 2, 1, 600, 2)}
	r := newFaultRunner(t, fs, Config{}, tasks)
	// The first group resume silently skips member 501 (exited-mid-kill
	// schedule); the fake keeps the process so it stays SIGSTOPped —
	// exactly what a kernel race leaves behind.
	fs.Inject(501, CallCont, FaultESRCH)
	for i := 0; i < 12; i++ {
		stepQuantum(fs, r)
	}
	if st, _ := r.sched.State(1); st == core.Eligible && fs.IsStopped(501) {
		t.Error("member 501 left SIGSTOPped while its task is eligible")
	}
	// No strikes: the group call succeeded, and the re-aligning SIGCONT
	// succeeded too. A strike here would double-charge the member for a
	// delivery that was never individually refused.
	if h := r.Health(); h.SignalFailures != 0 {
		t.Errorf("SignalFailures = %d, want 0 (partial ESRCH is not a failure)", h.SignalFailures)
	}
	for pid, p := range r.procs {
		if p.badSig != 0 {
			t.Errorf("pid %d has %d signal strikes outstanding", pid, p.badSig)
		}
	}
	r.Release()
	requireNoHandles(t, fs)
}

// TestGroupEPERMFallsBackPerPIDStrikesOnce: when the whole group call
// fails EPERM (every member refuses), delivery falls back per PID and
// each member is struck exactly once per enact — never once for the
// group failure plus once for the member failure.
func TestGroupEPERMFallsBackPerPIDStrikesOnce(t *testing.T) {
	fs := NewFaultSys()
	tasks := []Task{addGroup(fs, 1, 1, 700, 2), addGroup(fs, 2, 3, 800, 2)}
	log := obs.NewEventLog()
	r := newFaultRunner(t, fs, Config{Observer: log}, tasks)
	// Two EPERMs per member of group 700: the group sweep consumes one
	// each (no member signalable -> aggregate EPERM), the per-PID
	// fallback consumes the second (individual strike). Later deliveries
	// are clean.
	fs.Inject(700, CallStop, FaultEPERM, FaultEPERM)
	fs.Inject(701, CallStop, FaultEPERM, FaultEPERM)
	suspends := 0
	for i := 0; i < 40 && suspends == 0; i++ {
		stepQuantum(fs, r)
		for _, e := range core.TransitionsOf(log.Events()) {
			if e.Task == 1 && !e.Eligible {
				suspends++
			}
		}
	}
	if suspends == 0 {
		t.Fatal("task 1 never flipped ineligible; scenario not exercised")
	}
	if h := r.Health(); h.SignalFailures != 2 {
		t.Errorf("SignalFailures = %d, want exactly 2 (one strike per member, no double charge)", h.SignalFailures)
	}
	// The strike machinery retries on the reconcile sweep; with the fault
	// schedules drained the members end up correctly stopped.
	for i := 0; i < 4; i++ {
		stepQuantum(fs, r)
	}
	if st, _ := r.sched.State(1); st == core.Ineligible {
		for _, pid := range []int{700, 701} {
			if !fs.IsStopped(pid) {
				t.Errorf("member %d free-riding: not stopped while task ineligible", pid)
			}
		}
	}
	r.Release()
	requireNoHandles(t, fs)
}

// TestGroupClaimVerification: a claimed PGID that does not hold (one
// member sits outside the group — the attach-mode/mixed-group case)
// must demote the task to per-PID delivery at adoption, not stop
// unrelated processes or miss members at the first flip.
func TestGroupClaimVerification(t *testing.T) {
	fs := NewFaultSys()
	for _, pid := range []int{50, 51} {
		fs.AddProc(FaultProc{PID: pid, PGID: 50, Start: uint64(pid)})
	}
	fs.AddProc(FaultProc{PID: 52, Start: 52}) // own group: claim is wrong
	var errs []error
	r := newFaultRunner(t, fs, Config{
		OnError: func(err error) { errs = append(errs, err) },
	}, []Task{{ID: 1, Share: 1, PIDs: []int{50, 51, 52}, PGID: 50}})
	if r.tasks[1].pgid != 0 {
		t.Fatal("mixed membership accepted for group signalling")
	}
	if len(errs) == 0 {
		t.Error("demotion to per-PID delivery was silent")
	}
	logMark := len(fs.Log)
	for i := 0; i < 20; i++ {
		stepQuantum(fs, r)
	}
	if _, group := sigLogLines(fs, logMark); group != 0 {
		t.Errorf("%d group kills issued for an unverified claim", group)
	}
	r.Release()
}

// TestGroupModeSurvivesStateRoundTrip: checkpoint/restore re-verifies
// and preserves group signalling; a membership whose pgids changed
// during the outage is demoted instead of trusted.
func TestGroupModeSurvivesStateRoundTrip(t *testing.T) {
	fs := NewFaultSys()
	tasks := []Task{addGroup(fs, 1, 2, 300, 4)}
	r := newFaultRunner(t, fs, Config{}, tasks)
	for i := 0; i < 10; i++ {
		stepQuantum(fs, r)
	}
	st := r.State()
	if st.Tasks[0].PGID != 300 {
		t.Fatalf("state did not record verified PGID: %+v", st.Tasks[0])
	}
	r.Release()

	r2, err := NewRunnerFromState(Config{Sys: fs}, st)
	if err != nil {
		t.Fatal(err)
	}
	if pgid := r2.tasks[1].pgid; pgid != 300 {
		t.Errorf("restored runner lost group mode: pgid=%d", pgid)
	}
	r2.Release()

	// Same state, but a member left the group during the outage.
	fs.Proc(302).PGID = 1 // white-box: re-home one member
	r3, err := NewRunnerFromState(Config{Sys: fs}, st)
	if err != nil {
		t.Fatal(err)
	}
	if r3.tasks[1].pgid != 0 {
		t.Error("restore trusted a stale PGID claim after membership drifted")
	}
	r3.Release()
}

// TestGroupDemotionOnRefreshJoin: a refresh that joins a PID from
// outside the verified group reverts the task to per-PID delivery.
func TestGroupDemotionOnRefreshJoin(t *testing.T) {
	fs := NewFaultSys()
	tasks := []Task{addGroup(fs, 1, 1, 400, 2)}
	r := newFaultRunner(t, fs, Config{}, tasks)
	fs.AddProc(FaultProc{PID: 77, Start: 77}) // joiner in its own group
	r.refresh(map[core.TaskID][]int{1: {400, 401, 77}})
	if r.tasks[1].pgid != 0 {
		t.Error("group mode survived a join from outside the process group")
	}
	r.Release()
}

// TestGroupSignalsRaceReconfigure extends the -race suite to the new
// fast path: group deliveries fanned out over pool workers while
// Reconfigure rewrites shares, memberships, and the quantum, and other
// goroutines hammer Health and State. Run under -race (make race / CI);
// the invariant checked here is the release one — no PID is left frozen
// — plus the absence of data races.
func TestGroupSignalsRaceReconfigure(t *testing.T) {
	fs := NewFaultSys()
	fs.Quiet = true
	var tasks []Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, addGroup(fs, core.TaskID(i+1), int64(i+1), 1000*(i+1), 8))
	}
	r := newFaultRunner(t, fs, Config{Samplers: 8}, tasks)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		n := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			n++
			_ = r.Reconfigure(Reconfig{SetShares: map[core.TaskID]int64{
				1: 1 + n%7,
				3: 2 + n%5,
			}})
			if n%10 == 0 {
				// Quantum churn exercises SetQuantum racing the signal path.
				_ = r.Reconfigure(Reconfig{Quantum: fq * time.Duration(1+n%3)})
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = r.Health().String()
			_ = r.State()
		}
	}()

	for i := 0; i < 300; i++ {
		stepQuantum(fs, r)
	}
	close(stop)
	wg.Wait()
	if r.sched.Len() == 0 {
		t.Error("hammer lost the whole workload")
	}
	r.Release()
	if got := fs.StoppedPIDs(); len(got) != 0 {
		t.Errorf("PIDs left frozen after release: %v", got)
	}
}

// TestGroupStopSkippedMember: POSIX kill(-pgid, SIGSTOP) succeeds once it
// stops any one member, so a member the kernel skipped (changed
// credentials; scripted as an EPERM on that member) is recorded stopped
// while it runs. Ineligible tasks are not measured, so only the reconcile
// sweep can see it: the sweep reads the members of an ineligible group
// task, skipping a task whose group stop went out this quantum (SIGSTOP
// lands asynchronously), and re-sends SIGSTOP to a running member alone,
// through the strike machinery.
func TestGroupStopSkippedMember(t *testing.T) {
	for _, tc := range []struct {
		name             string
		refusals         int
		wantUnsignalable int64
	}{
		{"refused once", 1, 0},
		{"refused always", 1000, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := NewFaultSys()
			tasks := []Task{addGroup(fs, 1, 1, 500, 3), addGroup(fs, 2, 5, 600, 2)}
			r := newFaultRunner(t, fs, Config{}, tasks)
			defer r.Release()
			refusals := make([]FaultKind, tc.refusals)
			for i := range refusals {
				refusals[i] = FaultEPERM
			}
			fs.Inject(501, CallStop, refusals...)
			ineligible := func() bool {
				st, _ := r.sched.State(1)
				return st == core.Ineligible
			}

			// Tasks start ineligible, stopped member by member at adoption:
			// wait for task 1's first grant, then for its first group stop.
			steps := 0
			for ; steps < 60 && ineligible(); steps++ {
				stepQuantum(fs, r)
			}
			for ; steps < 60 && !ineligible(); steps++ {
				stepQuantum(fs, r)
			}
			if !ineligible() || fs.IsStopped(501) || !fs.IsStopped(500) {
				t.Fatalf("after %d quanta: task 1 ineligible=%v, 500 stopped=%v, 501 stopped=%v; want the group stop to skip 501 alone",
					steps, ineligible(), fs.IsStopped(500), fs.IsStopped(501))
			}
			mark := len(fs.Log)
			r.reconcile() // same quantum as the group stop: nothing is read or sent
			if perPID, _ := sigLogLines(fs, mark); perPID != 0 || fs.IsStopped(501) {
				t.Fatalf("sweep in the group stop's quantum sent %d per-PID signals (501 stopped=%v), want none",
					perPID, fs.IsStopped(501))
			}

			stepQuantum(fs, r)
			steps++
			r.reconcile()
			if !ineligible() {
				t.Fatal("task 1 became eligible one quantum after its stop; scenario not exercised")
			}
			h := r.Health()
			switch {
			case tc.wantUnsignalable == 0 && (!fs.IsStopped(501) || h.SignalFailures != 0):
				t.Fatalf("one sweep later: 501 stopped=%v SignalFailures=%d, want stopped with no failure",
					fs.IsStopped(501), h.SignalFailures)
			case tc.wantUnsignalable > 0 && h.SignalFailures == 0:
				t.Fatal("one sweep later: no per-PID SIGSTOP was tried on the running member")
			}

			for ; steps < 60; steps++ {
				stepQuantum(fs, r)
				if !ineligible() {
					continue
				}
				for _, pid := range []int{500, 502} {
					if !fs.IsStopped(pid) {
						t.Fatalf("quantum %d: member %d runs while its task is ineligible", steps, pid)
					}
				}
				if tc.wantUnsignalable == 0 && !fs.IsStopped(501) {
					t.Fatalf("quantum %d: member 501 runs while its task is ineligible", steps)
				}
			}
			if got := r.Health().UnsignalablePIDs; got != tc.wantUnsignalable {
				t.Errorf("UnsignalablePIDs = %d, want %d", got, tc.wantUnsignalable)
			}
		})
	}
}
