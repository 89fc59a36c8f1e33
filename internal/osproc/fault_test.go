package osproc

import (
	"errors"
	"fmt"
	"strings"
	"syscall"
	"testing"
	"time"

	"alps/internal/core"
	"alps/internal/obs"
)

const fq = 20 * time.Millisecond // fault-test quantum

// newFaultRunner builds a Runner over a FaultSys. The runner reads the
// fake's virtual clock, so overruns are fully deterministic.
func newFaultRunner(t *testing.T, fs *FaultSys, cfg Config, tasks []Task) *Runner {
	t.Helper()
	if cfg.Quantum == 0 {
		cfg.Quantum = fq
	}
	cfg.Sys = fs
	r, err := NewRunner(cfg, tasks)
	if err != nil {
		t.Fatal(err)
	}
	r.lastTick = fs.Now()
	return r
}

// requireNoHandles fails the test if any read handle is still open: a
// released runner must have forgotten every PID it ever read.
func requireNoHandles(t *testing.T, fs *FaultSys) {
	t.Helper()
	if open := fs.OpenHandles(); len(open) != 0 {
		t.Errorf("read handles left open after Release: %v", open)
	}
}

// stepQuantum emulates one ticker firing: the quantum elapses (running
// processes consume CPU), then the control loop runs.
func stepQuantum(fs *FaultSys, r *Runner) bool {
	fs.Advance(r.cfg.Quantum)
	return r.Step()
}

func TestNewRunnerAllPIDsGone(t *testing.T) {
	fs := NewFaultSys() // empty process table: every PID is gone
	_, err := NewRunner(Config{Quantum: fq, Sys: fs}, []Task{
		{ID: 1, Share: 1, PIDs: []int{10}},
		{ID: 2, Share: 2, PIDs: []int{20, 21}},
	})
	if !errors.Is(err, ErrNoLiveProcess) {
		t.Fatalf("err = %v, want ErrNoLiveProcess", err)
	}
}

func TestNewRunnerPartialStartup(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	r := newFaultRunner(t, fs, Config{}, []Task{
		{ID: 1, Share: 1, PIDs: []int{10, 11}}, // 11 is already gone
	})
	if h := r.Health(); h.VanishedPIDs != 1 {
		t.Errorf("VanishedPIDs = %d, want 1", h.VanishedPIDs)
	}
	if !fs.IsStopped(10) {
		t.Error("live PID not suspended at startup")
	}
	if got := memberPIDs(r, 1); len(got) != 1 || got[0] != 10 {
		t.Errorf("members = %v, want [10]", got)
	}
	r.Release()
	if fs.IsStopped(10) {
		t.Error("Release left the PID stopped")
	}
}

// TestVanishMidRun: the only process of a task exits between quanta; the
// runner drops the PID, the scheduler declares the task dead, and no
// bookkeeping entry survives.
func TestVanishMidRun(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	fs.AddProc(FaultProc{PID: 20, Start: 1})
	r := newFaultRunner(t, fs, Config{}, []Task{
		{ID: 1, Share: 1, PIDs: []int{10}},
		{ID: 2, Share: 1, PIDs: []int{20}},
	})
	stepQuantum(fs, r) // first tick: both tasks become eligible
	fs.Kill(10)
	for i := 0; i < 10; i++ {
		stepQuantum(fs, r)
	}
	if r.sched.Len() != 1 {
		t.Fatalf("scheduler still has %d tasks, want 1", r.sched.Len())
	}
	if _, ok := r.procs[10]; ok {
		t.Error("stale record for vanished PID")
	}
	if _, ok := r.tasks[1]; ok {
		t.Error("dead task still has an entry")
	}
	if h := r.Health(); h.VanishedPIDs == 0 {
		t.Error("vanished PID not counted")
	}
	r.Release()
	requireNoHandles(t, fs)
}

// TestZombieDropped: a process that becomes a zombie is treated as gone.
func TestZombieDropped(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	r := newFaultRunner(t, fs, Config{}, []Task{{ID: 1, Share: 1, PIDs: []int{10}}})
	stepQuantum(fs, r)
	fs.SetState(10, 'Z')
	done := false
	for i := 0; i < 10 && !done; i++ {
		done = stepQuantum(fs, r)
	}
	if !done {
		t.Error("runner never noticed the zombie workload")
	}
	if h := r.Health(); h.VanishedPIDs != 1 {
		t.Errorf("VanishedPIDs = %d, want 1", h.VanishedPIDs)
	}
}

// TestTransientReadRetry: a /proc read that fails with an error the
// runner cannot classify (EINTR) is not retried within the quantum. The
// PID is kept, its task is charged nothing that quantum — no consumption
// and no §2.4 blocked charge — and the next quantum's good read charges
// all the CPU used since the last good one.
func TestTransientReadRetry(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	log := obs.NewEventLog()
	r := newFaultRunner(t, fs, Config{Observer: log}, []Task{{ID: 1, Share: 1, PIDs: []int{10}}})
	stepQuantum(fs, r) // eligible
	stepQuantum(fs, r) // the last good read before the fault
	lastGood := fs.Proc(10).CPU
	fs.Inject(10, CallRead, FaultEINTR)
	stepMeasures := func() []obs.Event { // one quantum's measurements
		n := len(log.Filter(obs.KindMeasure))
		stepQuantum(fs, r)
		return log.Filter(obs.KindMeasure)[n:]
	}
	if m := stepMeasures(); len(m) != 1 || m[0].Consumed != 0 || m[0].Blocked {
		t.Fatalf("quantum of the failed read measured %+v, want one measurement charging nothing", m)
	}
	if r.procs[10] == nil {
		t.Fatal("PID dropped after one failed read")
	}
	m := stepMeasures()
	if want := fs.Proc(10).CPU - lastGood; len(m) != 1 || m[0].Consumed != want {
		t.Fatalf("next good read measured %+v, want it to charge all %v since the last good read", m, want)
	}
	for i := 0; i < 3; i++ {
		stepQuantum(fs, r)
	}
	requireNoCPULost(t, r, fs, log, 1, 10)
	r.Release()
}

// requireNoCPULost checks DESIGN's promise for a transiently unreadable
// PID, the only member of task id, which had used no CPU when it joined:
// the PID is kept, every quantum whose read of it failed (FaultEINTR)
// charged the task nothing — no consumption and no §2.4 blocked charge —
// and the good reads charged all the CPU the PID used up to the last of
// them. Each read of pid after the join baseline is one measurement of
// the task.
func requireNoCPULost(t *testing.T, r *Runner, fs *FaultSys, log *obs.EventLog, id core.TaskID, pid int) {
	t.Helper()
	p := r.procs[pid]
	if p == nil {
		t.Fatalf("pid %d was dropped after transient read failures", pid)
	}
	read := fmt.Sprintf("read %d", pid)
	var reads []string
	for _, line := range fs.Log {
		if line == read || strings.HasPrefix(line, read+":") {
			reads = append(reads, line)
		}
	}
	var measures []obs.Event
	for _, e := range log.Filter(obs.KindMeasure) {
		if e.Task == int64(id) {
			measures = append(measures, e)
		}
	}
	if len(reads) != len(measures)+1 {
		t.Fatalf("%d reads of pid %d for %d measurements of task %d, want the join baseline plus one per measurement",
			len(reads), pid, len(measures), id)
	}
	failed := 0
	var charged time.Duration
	for i, e := range measures {
		charged += e.Consumed
		if reads[i+1] == read+": EINTR" {
			failed++
			if e.Consumed != 0 || e.Blocked {
				t.Errorf("tick %d: failed read charged %v (blocked %t), want nothing", e.Tick, e.Consumed, e.Blocked)
			}
		}
	}
	if failed == 0 {
		t.Errorf("no read of pid %d failed", pid)
	}
	if charged != p.cpu {
		t.Errorf("task %d was charged %v in all, want the %v its PID used up to its last good read", id, charged, p.cpu)
	}
}

// TestUnsignalablePIDDropped: a PID that persistently returns EPERM on
// signals accumulates strikes and is dropped (graceful degradation), so
// the rest of the workload keeps its guarantees.
func TestUnsignalablePIDDropped(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	r := newFaultRunner(t, fs, Config{}, []Task{{ID: 1, Share: 1, PIDs: []int{10}}})
	for i := 0; i < maxBadPIDStrikes; i++ {
		fs.Inject(10, CallStop, FaultEPERM)
		if !r.signal(10, true) {
			// expected: delivery failed
		}
	}
	if _, ok := r.procs[10]; ok {
		t.Error("unsignalable PID still has a record")
	}
	if got := memberPIDs(r, 1); len(got) != 0 {
		t.Errorf("unsignalable PID still a member: %v", got)
	}
	h := r.Health()
	if h.UnsignalablePIDs != 1 {
		t.Errorf("UnsignalablePIDs = %d, want 1", h.UnsignalablePIDs)
	}
	if h.SignalFailures != int64(maxBadPIDStrikes) {
		t.Errorf("SignalFailures = %d, want %d", h.SignalFailures, maxBadPIDStrikes)
	}
	if got := fs.OpenHandles(); len(got) != 0 {
		t.Errorf("dropped PID's read handle still open: %v", got)
	}
	r.Release()
	requireNoHandles(t, fs)
}

// TestEPERMDegradesGracefully is the loop-level version: one task's PID
// turns unsignalable mid-run; the control loop keeps running the other
// task and eventually retires the refusing task, without a panic and
// without freezing anything.
func TestEPERMDegradesGracefully(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	fs.AddProc(FaultProc{PID: 20, Start: 1})
	var errs int
	// Asymmetric shares so task 1 actually crosses eligible→ineligible
	// (with equal shares and identical consumption, the cycle completes
	// exactly as allowances hit zero and no transition ever fires).
	r := newFaultRunner(t, fs, Config{OnError: func(error) { errs++ }}, []Task{
		{ID: 1, Share: 1, PIDs: []int{10}},
		{ID: 2, Share: 3, PIDs: []int{20}},
	})
	// PID 10 refuses every signal from now on (e.g. a setuid exec
	// changed its credentials).
	for i := 0; i < 64; i++ {
		fs.Inject(10, CallStop, FaultEPERM)
		fs.Inject(10, CallCont, FaultEPERM)
	}
	for i := 0; i < 100; i++ {
		stepQuantum(fs, r)
	}
	if r.sched.Len() != 1 {
		t.Fatalf("scheduler has %d tasks, want 1 (refusing task retired)", r.sched.Len())
	}
	if _, err := r.sched.State(2); err != nil {
		t.Error("healthy task was lost while degrading")
	}
	if h := r.Health(); h.UnsignalablePIDs != 1 {
		t.Errorf("UnsignalablePIDs = %d, want 1", h.UnsignalablePIDs)
	}
	if errs == 0 {
		t.Error("OnError never surfaced the degradation")
	}
	r.Release()
	requireNoHandles(t, fs)
	// PID 10 itself may stay frozen — by construction it cannot be
	// signalled at all — but the healthy task must not.
	if fs.IsStopped(20) {
		t.Error("healthy task's process left frozen")
	}
}

// TestPIDReuseNotCharged: the kernel recycles a controlled PID for an
// unrelated process. The start-time guard drops it before any of the new
// incarnation's CPU is charged.
func TestPIDReuseNotCharged(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 100})
	fs.AddProc(FaultProc{PID: 20, Start: 100})
	var charged time.Duration
	r := newFaultRunner(t, fs, Config{
		OnCycle: func(rec core.CycleRecord) {
			for _, ct := range rec.Tasks {
				if ct.ID == 1 {
					charged += ct.Consumed
				}
			}
		},
	}, []Task{
		{ID: 1, Share: 1, PIDs: []int{10}},
		{ID: 2, Share: 1, PIDs: []int{20}},
	})
	stepQuantum(fs, r)
	// PID 10's process dies and the number is immediately recycled for
	// an unrelated CPU hog.
	fs.Reuse(10, 777)
	fs.Proc(10).CPU = 40 * time.Hour
	for i := 0; i < 10; i++ {
		stepQuantum(fs, r)
	}
	if h := r.Health(); h.ReusedPIDs != 1 {
		t.Errorf("ReusedPIDs = %d, want 1", h.ReusedPIDs)
	}
	if charged > time.Second {
		t.Errorf("recycled PID's CPU was charged to the task: %v", charged)
	}
	if _, ok := r.procs[10]; ok {
		t.Error("recycled PID still has a record")
	}
	r.Release()
	requireNoHandles(t, fs)
}

// TestFaultSysReuseAbsentPID: reusing a PID the table does not hold
// installs the fresh incarnation. The call runs on its own goroutine so
// that a deadlock fails the test instead of hanging the package.
func TestFaultSysReuseAbsentPID(t *testing.T) {
	fs := NewFaultSys()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fs.Reuse(10, 5)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Reuse of an absent PID did not return")
	}
	if st, err := fs.ReadStat(10); err != nil || st.Start != 5 {
		t.Fatalf("ReadStat(10) = %+v, %v; want Start 5", st, err)
	}
}

// TestOverrunCompensation: the loop stalls for several quanta (slow
// /proc read, controller preempted); the next step detects the overrun,
// records lateness, and issues capped catch-up invocations instead of
// silently under-accounting the elapsed time.
func TestOverrunCompensation(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	r := newFaultRunner(t, fs, Config{}, []Task{{ID: 1, Share: 1, PIDs: []int{10}}})
	stepQuantum(fs, r)
	ticksBefore := r.Health().Ticks
	// The ticker stalls: 3 quanta elapse before the next firing.
	fs.Advance(3 * fq)
	r.Step()
	h := r.Health()
	if h.MissedTicks != 2 {
		t.Errorf("MissedTicks = %d, want 2", h.MissedTicks)
	}
	if h.CatchUpTicks != 2 {
		t.Errorf("CatchUpTicks = %d, want 2", h.CatchUpTicks)
	}
	if got := r.Health().Ticks - ticksBefore; got != 3 {
		t.Errorf("algorithm invocations during stalled step = %d, want 3", got)
	}
	if h.LastLateness != 2*fq {
		t.Errorf("LastLateness = %v, want %v", h.LastLateness, 2*fq)
	}
	if h.MaxLateness < 2*fq {
		t.Errorf("MaxLateness = %v, want >= %v", h.MaxLateness, 2*fq)
	}
	r.Release()
}

// TestSlowReadSurfacesAsLateness: a stalled /proc read eats two quanta;
// the following step sees the overrun.
func TestSlowReadSurfacesAsLateness(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	r := newFaultRunner(t, fs, Config{}, []Task{{ID: 1, Share: 1, PIDs: []int{10}}})
	stepQuantum(fs, r) // eligible
	fs.SlowDelay = 2 * fq
	fs.Inject(10, CallRead, FaultSlow)
	stepQuantum(fs, r) // this read stalls the loop for 2 quanta
	stepQuantum(fs, r) // next firing observes the stall
	if h := r.Health(); h.MissedTicks != 2 {
		t.Errorf("MissedTicks = %d, want 2 (slow read must surface as lateness)", h.MissedTicks)
	}
	r.Release()
}

// TestRunnerReadsSubstrateClock: a Runner built with nothing but a Sys
// reads that Sys's clock, so a stall on the fake's virtual clock shows up
// as missed quanta without any other wiring.
func TestRunnerReadsSubstrateClock(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	r, err := NewRunner(Config{Quantum: fq, Sys: fs}, []Task{{ID: 1, Share: 1, PIDs: []int{10}}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	stepQuantum(fs, r) // eligible
	fs.SlowDelay = 3 * fq
	fs.Inject(10, CallRead, FaultSlow)
	stepQuantum(fs, r) // this read stalls the loop for 3 quanta
	stepQuantum(fs, r) // next firing observes the stall
	if h := r.Health(); h.MissedTicks != 3 {
		t.Errorf("MissedTicks = %d, want 3 (the runner must read Sys.Now)", h.MissedTicks)
	}
}

// TestCatchUpCap: a very long stall issues at most maxCatchUpTicks extra
// invocations — no signal storm after a laptop resume.
func TestCatchUpCap(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	r := newFaultRunner(t, fs, Config{}, []Task{{ID: 1, Share: 1, PIDs: []int{10}}})
	stepQuantum(fs, r)
	before := r.Health().Ticks
	fs.Advance(100 * fq)
	r.Step()
	if got := r.Health().Ticks - before; got != 1+maxCatchUpTicks {
		t.Errorf("invocations = %d, want %d (capped)", got, 1+maxCatchUpTicks)
	}
	if h := r.Health(); h.MissedTicks != 99 {
		t.Errorf("MissedTicks = %d, want 99", h.MissedTicks)
	}
	r.Release()
}

// TestStepPanicReleasesWorkload: a panic escaping Step (here from the
// OnCycle callback, mid-TickQuantum) must resume every suspended process
// before propagating — the paper's implicit "never leave the workload
// frozen" invariant.
func TestStepPanicReleasesWorkload(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	fs.AddProc(FaultProc{PID: 20, Start: 1})
	boom := false
	r := newFaultRunner(t, fs, Config{
		OnCycle: func(core.CycleRecord) {
			if boom {
				panic("injected mid-cycle failure")
			}
		},
	}, []Task{
		{ID: 1, Share: 1, PIDs: []int{10}},
		{ID: 2, Share: 3, PIDs: []int{20}},
	})
	// Run a while so some PID is plausibly suspended, then arm the bomb.
	for i := 0; i < 8; i++ {
		stepQuantum(fs, r)
	}
	boom = true
	recovered := func() (msg any) {
		defer func() { msg = recover() }()
		for i := 0; i < 50; i++ {
			stepQuantum(fs, r)
		}
		return nil
	}()
	if recovered == nil {
		t.Fatal("panic did not propagate out of Step")
	}
	if got := fs.StoppedPIDs(); len(got) != 0 {
		t.Errorf("panic left processes frozen: %v", got)
	}
}

// TestChaosInvariants: seeded random transient faults on /proc reads
// for many quanta. Whatever the interleaving, the loop must not panic,
// must keep its process table consistent after every Step (no record
// outlives its membership), and Release must leave nothing frozen.
func TestChaosInvariants(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		fs := NewFaultSys()
		fs.AddProc(FaultProc{PID: 10, Start: 1})
		fs.AddProc(FaultProc{PID: 20, Start: 1})
		fs.AddProc(FaultProc{PID: 30, Start: 1})
		r := newFaultRunner(t, fs, Config{}, []Task{
			{ID: 1, Share: 1, PIDs: []int{10}},
			{ID: 2, Share: 2, PIDs: []int{20}},
			{ID: 3, Share: 3, PIDs: []int{30}},
		})
		fs.Chaos(seed, 0.2)
		for i := 0; i < 300; i++ {
			stepQuantum(fs, r)
			checkTable(t, r, fs)
		}
		r.Release()
		if got := fs.StoppedPIDs(); len(got) != 0 {
			t.Errorf("seed %d: frozen after Release: %v", seed, got)
		}
	}
}

// TestFaultSysSignalsNeverEINTR: the fake fails signals only as kill(2)
// can. Inject refuses EINTR on a per-PID or group signal call, and Chaos
// faults reads while every signal goes through.
func TestFaultSysSignalsNeverEINTR(t *testing.T) {
	for _, tc := range []struct {
		pid  int
		call FaultCall
	}{{10, CallStop}, {10, CallCont}, {-10, CallStop}, {-10, CallCont}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Inject(%d, %v, FaultEINTR) was accepted", tc.pid, tc.call)
				}
			}()
			NewFaultSys().Inject(tc.pid, tc.call, FaultEPERM, FaultEINTR)
		}()
	}

	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	fs.Chaos(1, 1)
	if _, err := fs.ReadStat(10); !errors.Is(err, syscall.EINTR) {
		t.Errorf("chaos read err = %v, want EINTR", err)
	}
	for i := 0; i < 10; i++ {
		if err := fs.Stop(10); err != nil {
			t.Fatalf("chaos Stop: %v", err)
		}
		if err := fs.Cont(10); err != nil {
			t.Fatalf("chaos Cont: %v", err)
		}
		if err := fs.StopGroup(10); err != nil {
			t.Fatalf("chaos StopGroup: %v", err)
		}
	}
}

// TestHealthStringAndDegraded: the telemetry snapshot renders and
// classifies itself.
func TestHealthStringAndDegraded(t *testing.T) {
	var h Health
	if h.Degraded() {
		t.Error("zero Health reported degraded")
	}
	h.VanishedPIDs = 2
	h.LastLateness = 5 * time.Millisecond
	if !h.Degraded() {
		t.Error("faulty Health not reported degraded")
	}
	s := h.String()
	if s == "" || len(s) < 20 {
		t.Errorf("String() = %q", s)
	}
}

// dueNext counts the tasks due for a read at the next tick.
func dueNext(s *core.Scheduler) int {
	snap := s.Snapshot()
	n := 0
	for _, ts := range snap.Tasks {
		if ts.Eligible && ts.Update <= snap.Count+1 {
			n++
		}
	}
	return n
}

// TestStepDoneWhenSleepersOutliveS: the only task in S exits between
// grants while three sleepers are dormant with their next watch reads
// deferred. S is then empty and no grant comes, yet the watch keeps
// reading the sleepers: one that wakes rejoins S, and once every sleeper
// has exited Step reports done, so Run returns.
func TestStepDoneWhenSleepersOutliveS(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1, State: 'R', Rate: 1})
	tasks := []Task{{ID: 1, Share: 4, PIDs: []int{10}}}
	for i := 0; i < 3; i++ {
		pid := 20 + i
		fs.AddProc(FaultProc{PID: pid, Start: uint64(pid), State: 'S'})
		tasks = append(tasks, Task{ID: core.TaskID(2 + i), Share: 1, PIDs: []int{pid}})
	}
	r := newFaultRunner(t, fs, Config{}, tasks)
	sched := r.Scheduler()
	// Step to a quantum that completed no cycle and after which no
	// sleeper is read next quantum, then let the spinner exit.
	for {
		cycles := sched.Cycles()
		if stepQuantum(fs, r) || sched.Tick() > 200 {
			t.Fatal("the sleepers never went dormant with deferred reads")
		}
		if sched.NumDormant() == 3 && sched.Cycles() == cycles && dueNext(sched) == 0 {
			break
		}
	}
	fs.Kill(10)
	for sched.TotalShares() > 0 {
		if stepQuantum(fs, r) || sched.Tick() > 400 {
			t.Fatal("the spinner's exit was never noticed")
		}
	}
	fs.SetState(21, 'R')
	for i := 0; sched.Dormant(3); i++ {
		if stepQuantum(fs, r); i > 4 {
			t.Fatal("a sleeper that woke after S emptied was never read")
		}
	}
	for _, pid := range []int{20, 21, 22} {
		fs.Kill(pid)
	}
	for i := 0; !stepQuantum(fs, r); i++ {
		if i > 4 {
			t.Fatalf("Step not done %d quanta after every process exited (%d tasks left)", i, sched.Len())
		}
	}
}
