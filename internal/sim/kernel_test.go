package sim

import (
	"testing"
	"time"
)

func TestClockAdvances(t *testing.T) {
	k := NewKernel()
	k.Run(time.Second)
	if k.Now() != time.Second {
		t.Errorf("Now = %v, want 1s", k.Now())
	}
	if k.Ticks() != 100 {
		t.Errorf("Ticks = %d, want 100", k.Ticks())
	}
	k.Run(3 * time.Second)
	if k.Now() != 3*time.Second {
		t.Errorf("Now after second Run = %v, want 3s", k.Now())
	}
}

func TestAtOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(20*time.Millisecond, func() { order = append(order, 2) })
	k.At(10*time.Millisecond, func() { order = append(order, 1) })
	k.At(10*time.Millisecond, func() { order = append(order, 11) }) // same time: FIFO by seq
	k.Run(time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 11 || order[2] != 2 {
		t.Errorf("event order = %v", order)
	}
}

func TestAtPastTimeRunsImmediately(t *testing.T) {
	k := NewKernel()
	k.Run(time.Second)
	ran := false
	k.At(10*time.Millisecond, func() { ran = true }) // in the past
	k.Run(time.Second + time.Millisecond)
	if !ran {
		t.Error("past-scheduled event did not run")
	}
}

func TestStopEndsRun(t *testing.T) {
	k := NewKernel()
	k.At(500*time.Millisecond, k.Stop)
	k.Run(10 * time.Second)
	if k.Now() != 500*time.Millisecond {
		t.Errorf("Now = %v, want 500ms", k.Now())
	}
}

func TestSingleSpinnerConsumesEverything(t *testing.T) {
	k := NewKernel()
	pid := k.Spawn("spin", 0, Spin())
	k.Run(5 * time.Second)
	info, ok := k.Info(pid)
	if !ok {
		t.Fatal("process vanished")
	}
	if info.CPU != 5*time.Second {
		t.Errorf("CPU = %v, want 5s", info.CPU)
	}
	if info.State != Running {
		t.Errorf("state = %v, want running", info.State)
	}
	if k.BusyTime() != 5*time.Second {
		t.Errorf("BusyTime = %v, want 5s", k.BusyTime())
	}
}

func TestSpinForExits(t *testing.T) {
	k := NewKernel()
	pid := k.Spawn("finite", 0, SpinFor(300*time.Millisecond))
	k.Run(time.Second)
	if _, ok := k.Info(pid); ok {
		t.Error("process should have exited")
	}
	if k.BusyTime() != 300*time.Millisecond {
		t.Errorf("BusyTime = %v, want 300ms", k.BusyTime())
	}
}

func TestCPUTickedRounding(t *testing.T) {
	k := NewKernel()
	pid := k.Spawn("finite", 0, SpinFor(23*time.Millisecond))
	k.Run(time.Second)
	_ = pid
	// Process exited; spawn another consuming 23ms and inspect mid-run.
	pid2 := k.Spawn("partial", 0, SpinFor(23*time.Millisecond))
	k.Run(k.Now() + 23*time.Millisecond + time.Millisecond)
	if info, ok := k.Info(pid2); ok {
		t.Fatalf("pid2 should have exited, state %v", info.State)
	}
	pid3 := k.Spawn("live", 0, Spin())
	k.Run(k.Now() + 37*time.Millisecond)
	info, _ := k.Info(pid3)
	if info.CPU != 37*time.Millisecond {
		t.Fatalf("precise CPU = %v, want 37ms", info.CPU)
	}
	if info.CPUTicked != 40*time.Millisecond {
		t.Errorf("ticked CPU = %v, want 40ms (round to 10ms)", info.CPUTicked)
	}
}

func TestSleepWakes(t *testing.T) {
	k := NewKernel()
	pid := k.Spawn("sleeper", 0, SleepLoop(100*time.Millisecond))
	k.Run(50 * time.Millisecond)
	info, _ := k.Info(pid)
	if info.State != Sleeping {
		t.Fatalf("state = %v, want sleeping", info.State)
	}
	k.Run(120 * time.Millisecond)
	info, _ = k.Info(pid)
	if info.State != Sleeping {
		t.Errorf("state after wake+resleep = %v, want sleeping again", info.State)
	}
	if info.CPU != 0 {
		t.Errorf("sleeper consumed %v", info.CPU)
	}
}

func TestSigstopRunning(t *testing.T) {
	k := NewKernel()
	pid := k.Spawn("spin", 0, Spin())
	k.Run(100 * time.Millisecond)
	k.Signal(pid, SIGSTOP)
	k.Run(200 * time.Millisecond)
	info, _ := k.Info(pid)
	if info.State != Stopped {
		t.Fatalf("state = %v, want stopped", info.State)
	}
	if info.CPU != 100*time.Millisecond {
		t.Errorf("stopped process kept consuming: %v", info.CPU)
	}
	k.Signal(pid, SIGCONT)
	k.Run(300 * time.Millisecond)
	info, _ = k.Info(pid)
	if info.State != Running {
		t.Errorf("state after SIGCONT = %v, want running", info.State)
	}
	if info.CPU != 200*time.Millisecond {
		t.Errorf("CPU = %v, want 200ms (100ms before stop + 100ms after cont)", info.CPU)
	}
}

func TestSigstopReady(t *testing.T) {
	k := NewKernel()
	a := k.Spawn("a", 0, Spin())
	b := k.Spawn("b", 0, Spin())
	k.Run(5 * time.Millisecond)
	// b is ready (a is running); stop b while queued.
	k.Signal(b, SIGSTOP)
	k.Run(time.Second)
	ia, _ := k.Info(a)
	ib, _ := k.Info(b)
	if ib.State != Stopped || ib.CPU != 0 {
		t.Errorf("b: state %v cpu %v, want stopped/0", ib.State, ib.CPU)
	}
	if ia.CPU != time.Second {
		t.Errorf("a should own the whole CPU, got %v", ia.CPU)
	}
}

func TestSigstopSleepingAndPendingWake(t *testing.T) {
	k := NewKernel()
	pid := k.Spawn("sleeper", 0, SleepLoop(100*time.Millisecond))
	k.Run(50 * time.Millisecond) // now sleeping until t=100ms
	k.Signal(pid, SIGSTOP)
	info, _ := k.Info(pid)
	if info.State != Stopped {
		t.Fatalf("state = %v, want stopped", info.State)
	}
	// SIGCONT before the sleep expires: back to sleeping.
	k.Signal(pid, SIGCONT)
	info, _ = k.Info(pid)
	if info.State != Sleeping {
		t.Fatalf("state after early SIGCONT = %v, want sleeping", info.State)
	}
	// Stop again and let the sleep expire while stopped.
	k.Signal(pid, SIGSTOP)
	k.Run(150 * time.Millisecond)
	info, _ = k.Info(pid)
	if info.State != Stopped {
		t.Fatalf("state = %v, want still stopped after sleep expiry", info.State)
	}
	// SIGCONT now: the pending wakeup makes it runnable, and it loops
	// back to sleeping once scheduled.
	k.Signal(pid, SIGCONT)
	k.Run(160 * time.Millisecond)
	info, _ = k.Info(pid)
	if info.State != Sleeping {
		t.Errorf("state = %v, want sleeping (woke, re-slept)", info.State)
	}
}

func TestSignalUnknownPIDIgnored(t *testing.T) {
	k := NewKernel()
	k.Signal(999, SIGSTOP) // must not panic
	k.Signal(999, SIGCONT)
}

func TestUnsupportedSignalPanics(t *testing.T) {
	k := NewKernel()
	pid := k.Spawn("x", 0, Spin())
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unsupported signal")
		}
	}()
	k.Signal(pid, Sig(9))
}

func TestWakeProc(t *testing.T) {
	k := NewKernel()
	woken := 0
	pid := k.Spawn("blocker", 0, BehaviorFunc(func(k *Kernel, pid PID) Action {
		woken++
		return Action{Block: true}
	}))
	k.Run(10 * time.Millisecond)
	if woken != 1 {
		t.Fatalf("behavior ran %d times, want 1", woken)
	}
	info, _ := k.Info(pid)
	if info.State != Sleeping {
		t.Fatalf("state = %v, want sleeping (blocked)", info.State)
	}
	k.WakeProc(pid)
	k.Run(20 * time.Millisecond)
	if woken != 2 {
		t.Errorf("behavior ran %d times after wake, want 2", woken)
	}
	// Waking a non-blocked or unknown process is a no-op.
	k.WakeProc(pid)
	k.WakeProc(12345)
}

// TestBlockStoppedWakesIntoSleep: a blocked process that is stopped and
// continued returns to its indefinite wait, not to the run queue; only
// WakeProc makes it runnable again.
func TestBlockStoppedWakesIntoSleep(t *testing.T) {
	k := NewKernel()
	runs := 0
	a := k.Spawn("a", 0, BehaviorFunc(func(k *Kernel, pid PID) Action {
		runs++
		return Action{Run: 10 * time.Millisecond, Block: true}
	}))
	k.Run(50 * time.Millisecond)
	k.Signal(a, SIGSTOP)
	k.Signal(a, SIGCONT)
	k.Run(100 * time.Millisecond)
	info, _ := k.Info(a)
	if info.State != Sleeping {
		t.Fatalf("SIGCONT while blocked = %v, want sleeping", info.State)
	}
	if runs != 1 || info.CPU != 10*time.Millisecond {
		t.Errorf("blocked process ran again: %d actions, cpu %v", runs, info.CPU)
	}
	k.WakeProc(a)
	k.Run(200 * time.Millisecond)
	info, _ = k.Info(a)
	if runs != 2 || info.CPU != 20*time.Millisecond {
		t.Errorf("after WakeProc: %d actions, cpu %v, want 2 and 20ms", runs, info.CPU)
	}
}

func TestEqualPrioritySharing(t *testing.T) {
	k := NewKernel()
	a := k.Spawn("a", 0, Spin())
	b := k.Spawn("b", 0, Spin())
	k.Run(10 * time.Second)
	ia, _ := k.Info(a)
	ib, _ := k.Info(b)
	fa := float64(ia.CPU) / float64(10*time.Second)
	if fa < 0.45 || fa > 0.55 {
		t.Errorf("a got %.2f of the CPU, want ~0.5 (b: %v)", fa, ib.CPU)
	}
}

// TestNewProcessFavored: a process spawned after a long-running spinner
// is initially favored by the decay-usage scheduler (the §4.1
// observation about fork-time priority boosts).
func TestNewProcessFavored(t *testing.T) {
	k := NewKernel()
	old := k.Spawn("old", 0, Spin())
	k.Run(10 * time.Second)
	young := k.Spawn("young", 0, Spin())
	// Over the first second after spawn, the newcomer should get well
	// over half the CPU.
	base, _ := k.Info(old)
	k.Run(11 * time.Second)
	after, _ := k.Info(old)
	info, _ := k.Info(young)
	oldGot := after.CPU - base.CPU
	if info.CPU <= oldGot {
		t.Errorf("young got %v vs old's %v; expected newcomer favored", info.CPU, oldGot)
	}
}

// TestSleeperPriorityRecovers: a process that sleeps a long time has its
// estcpu decayed retroactively (updatepri) and outcompetes a spinner when
// it wakes.
func TestSleeperPriorityRecovers(t *testing.T) {
	k := NewKernel()
	spin := k.Spawn("spin", 0, Spin())
	io := k.Spawn("io", 0, &PeriodicIO{Exec: 50 * time.Millisecond, Wait: 3 * time.Second})
	k.Run(20 * time.Second)
	// The I/O process wants 50ms of CPU every ~3s; with its decayed
	// priority it should get essentially all of it (≥80% of its demand).
	info, _ := k.Info(io)
	demand := float64(20*time.Second) / float64(3*time.Second+50*time.Millisecond) * 50 * float64(time.Millisecond)
	if float64(info.CPU) < 0.7*demand {
		t.Errorf("io process got %v of ~%v demanded", info.CPU, time.Duration(demand))
	}
	_ = spin
}

func TestPidsSorted(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 5; i++ {
		k.Spawn("p", 0, Spin())
	}
	pids := k.Pids()
	if len(pids) != 5 {
		t.Fatalf("Pids len = %d", len(pids))
	}
	for i := 1; i < len(pids); i++ {
		if pids[i] <= pids[i-1] {
			t.Errorf("Pids not sorted: %v", pids)
		}
	}
}

func TestInfoUnknown(t *testing.T) {
	k := NewKernel()
	if _, ok := k.Info(42); ok {
		t.Error("Info(42) should be not-ok")
	}
}

func TestLoadAvgTracksRunnable(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 4; i++ {
		k.Spawn("spin", 0, Spin())
	}
	k.Run(3 * time.Minute)
	if l := k.LoadAvg(); l < 3 || l > 5 {
		t.Errorf("load average = %.2f, want ~4", l)
	}
}

func TestZeroProgressBehaviorPanics(t *testing.T) {
	k := NewKernel()
	k.Spawn("bad", 0, BehaviorFunc(func(*Kernel, PID) Action {
		return Action{} // never makes progress
	}))
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero-progress behavior")
		}
	}()
	k.Run(time.Second)
}

func TestExitInOnDone(t *testing.T) {
	k := NewKernel()
	var spawned PID
	pid := k.Spawn("killer", 0, BehaviorFunc(func(k *Kernel, pid PID) Action {
		return Action{Run: 10 * time.Millisecond, OnDone: func(k *Kernel) {
			spawned = k.Spawn("child", 0, SpinFor(20*time.Millisecond))
		}, Exit: true}
	}))
	k.Run(time.Second)
	if _, ok := k.Info(pid); ok {
		t.Error("parent should have exited")
	}
	if _, ok := k.Info(spawned); ok {
		t.Error("child should have finished too")
	}
	if k.BusyTime() != 30*time.Millisecond {
		t.Errorf("BusyTime = %v, want 30ms", k.BusyTime())
	}
}

// TestSelfStopInOnDone: a behavior whose OnDone stops its own process
// must not keep running.
func TestSelfStopInOnDone(t *testing.T) {
	k := NewKernel()
	var pid PID
	pid = k.Spawn("selfstop", 0, BehaviorFunc(func(k *Kernel, p PID) Action {
		return Action{Run: 10 * time.Millisecond, OnDone: func(k *Kernel) {
			k.Signal(pid, SIGSTOP)
		}}
	}))
	k.Run(time.Second)
	info, _ := k.Info(pid)
	if info.State != Stopped {
		t.Fatalf("state = %v, want stopped", info.State)
	}
	if info.CPU != 10*time.Millisecond {
		t.Errorf("CPU = %v, want 10ms", info.CPU)
	}
}
