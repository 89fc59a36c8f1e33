package sim

import (
	"testing"
	"time"

	"alps/internal/core"
)

func TestStartALPSValidation(t *testing.T) {
	k := NewKernel()
	if _, err := StartALPS(k, AlpsConfig{}, nil); err == nil {
		t.Error("zero quantum should error")
	}
	pid := k.SpawnStopped("w", 0, Spin())
	tasks := []AlpsTask{
		{ID: 1, Share: 1, Pids: []PID{pid}},
		{ID: 1, Share: 2, Pids: []PID{pid}},
	}
	if _, err := StartALPS(k, AlpsConfig{Quantum: 10 * time.Millisecond}, tasks); err == nil {
		t.Error("duplicate task IDs should error")
	}
}

// TestCostAccounting: with the paper's cost model, ALPS's CPU time per
// quantum is the sum of its operation costs — here checked in aggregate
// against a generous budget.
func TestCostAccounting(t *testing.T) {
	k := NewKernel()
	tasks := startWorkload(k, []int64{5, 5})
	a, err := StartALPS(k, AlpsConfig{Quantum: 10 * time.Millisecond, Cost: PaperCosts()}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(10 * time.Second)
	timer, meas, sigs, _ := a.Stats()
	want := time.Duration(timer)*9020 + time.Duration(meas)*17400 + time.Duration(timer)*1100 + time.Duration(sigs)*970
	got := a.CPU()
	// The MeasureBase term is only charged on quanta that measured
	// something, so the modeled value is an upper bound within one base
	// term per quantum.
	if got > want || got < want-time.Duration(timer)*1100 {
		t.Errorf("ALPS CPU %v outside modeled range [%v, %v] (timer=%d meas=%d sigs=%d)",
			got, want-time.Duration(timer)*1100, want, timer, meas, sigs)
	}
}

// TestZeroCostModel: a zero cost model consumes no CPU at all.
func TestZeroCostModel(t *testing.T) {
	k := NewKernel()
	tasks := startWorkload(k, []int64{1, 1})
	a, err := StartALPS(k, AlpsConfig{Quantum: 10 * time.Millisecond}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(2 * time.Second)
	if a.CPU() != 0 {
		t.Errorf("ALPS CPU = %v with zero cost model", a.CPU())
	}
	if _, meas, _, _ := a.Stats(); meas == 0 {
		t.Error("ALPS made no measurements")
	}
}

// TestLazySamplingReducesMeasurements reproduces the mechanism behind the
// paper's §3.2 claim: disabling the optimization multiplies the number of
// measurements (and therefore overhead).
func TestLazySamplingReducesMeasurements(t *testing.T) {
	run := func(disable bool) (int64, time.Duration) {
		k := NewKernel()
		tasks := startWorkload(k, []int64{5, 5, 5, 5, 5})
		a, err := StartALPS(k, AlpsConfig{
			Quantum:             10 * time.Millisecond,
			Cost:                PaperCosts(),
			DisableLazySampling: disable,
		}, tasks)
		if err != nil {
			t.Fatal(err)
		}
		k.Run(30 * time.Second)
		_, meas, _, _ := a.Stats()
		return meas, a.CPU()
	}
	lazyMeas, lazyCPU := run(false)
	eagerMeas, eagerCPU := run(true)
	if factor := float64(eagerMeas) / float64(lazyMeas); factor < 1.8 {
		t.Errorf("eager/lazy measurement ratio = %.2f (%d vs %d), want ≥ 1.8 (paper's lower bound)",
			factor, eagerMeas, lazyMeas)
	}
	if eagerCPU <= lazyCPU {
		t.Errorf("eager overhead %v not above lazy %v", eagerCPU, lazyCPU)
	}
}

// TestMissedFiringCoalescing: an ALPS whose quantum is far smaller than
// its own processing cost must coalesce missed firings rather than fall
// behind indefinitely.
func TestMissedFiringCoalescing(t *testing.T) {
	k := NewKernel()
	tasks := startWorkload(k, []int64{1, 1})
	cost := PaperCosts()
	cost.TimerEvent = 25 * time.Millisecond // pathological: 2.5 quanta of work per firing
	a, err := StartALPS(k, AlpsConfig{Quantum: 10 * time.Millisecond, Cost: cost}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(5 * time.Second)
	timer, _, _, missed := a.Stats()
	if missed == 0 {
		t.Error("expected missed firings with pathological cost")
	}
	if timer < 100 {
		t.Errorf("ALPS serviced only %d timer events in 5s; it stalled", timer)
	}
}

// TestPrincipalGrouping: a multi-process task is scheduled as one
// resource principal — its processes' combined consumption is bounded by
// the group share (§5).
func TestPrincipalGrouping(t *testing.T) {
	k := NewKernel()
	var g1, g2 []PID
	for i := 0; i < 3; i++ {
		g1 = append(g1, k.SpawnStopped("g1", 0, Spin()))
		g2 = append(g2, k.SpawnStopped("g2", 0, Spin()))
	}
	_, err := StartALPS(k, AlpsConfig{Quantum: 20 * time.Millisecond, Cost: PaperCosts()}, []AlpsTask{
		{ID: 1, Share: 1, Pids: g1},
		{ID: 2, Share: 3, Pids: g2},
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(2 * time.Minute)
	sum := func(pids []PID) (s time.Duration) {
		for _, pid := range pids {
			info, _ := k.Info(pid)
			s += info.CPU
		}
		return
	}
	c1, c2 := sum(g1), sum(g2)
	frac := float64(c1) / float64(c1+c2)
	if frac < 0.20 || frac > 0.30 {
		t.Errorf("group 1 fraction = %.3f, want ~0.25 (c1=%v c2=%v)", frac, c1, c2)
	}
}

// TestRefreshAddsMembers: processes that appear in a principal's
// membership after a refresh are scheduled (and charged) with the group.
func TestRefreshAddsMembers(t *testing.T) {
	k := NewKernel()
	first := k.SpawnStopped("u1", 0, Spin())
	other := k.SpawnStopped("v1", 0, Spin())
	members := []PID{first}
	var late PID = -1
	k.At(5*time.Second, func() {
		late = k.Spawn("u2", 0, Spin())
		members = append(members, late)
	})
	_, err := StartALPS(k, AlpsConfig{
		Quantum:      10 * time.Millisecond,
		Cost:         PaperCosts(),
		RefreshEvery: time.Second,
		Refresh: func(k *Kernel) map[core.TaskID][]PID {
			return map[core.TaskID][]PID{1: members}
		},
	}, []AlpsTask{
		{ID: 1, Share: 1, Pids: members},
		{ID: 2, Share: 1, Pids: []PID{other}},
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(65 * time.Second)
	// Group 1 (the two u processes) should jointly hold ~50%, not 67%.
	i1, _ := k.Info(first)
	i2, _ := k.Info(late)
	io, _ := k.Info(other)
	groupU := i1.CPU + i2.CPU
	frac := float64(groupU) / float64(groupU+io.CPU)
	if frac < 0.42 || frac > 0.58 {
		t.Errorf("refreshed group fraction = %.3f, want ~0.5 (u=%v v=%v)", frac, groupU, io.CPU)
	}
}

// TestRefreshReleasesDepartingMember: a member dropped from its
// principal while ALPS holds it stopped is resumed on its way out, as
// the runner's leave resumes it, so no process is left SIGSTOPped.
func TestRefreshReleasesDepartingMember(t *testing.T) {
	k := NewKernel()
	kept := k.SpawnStopped("u1", 0, Spin())
	dropped := k.SpawnStopped("u2", 0, Spin())
	other := k.SpawnStopped("v1", 0, Spin())
	droppedAt := time.Duration(-1)
	_, err := StartALPS(k, AlpsConfig{
		Quantum:      10 * time.Millisecond,
		Cost:         PaperCosts(),
		RefreshEvery: 10 * time.Millisecond,
		Refresh: func(k *Kernel) map[core.TaskID][]PID {
			if info, _ := k.Info(dropped); droppedAt < 0 && k.Now() >= 100*time.Millisecond && info.State == Stopped {
				droppedAt = k.Now()
			}
			if droppedAt >= 0 {
				return map[core.TaskID][]PID{1: {kept}}
			}
			return map[core.TaskID][]PID{1: {kept, dropped}}
		},
	}, []AlpsTask{
		{ID: 1, Share: 1, Pids: []PID{kept, dropped}},
		{ID: 2, Share: 1, Pids: []PID{other}},
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(20 * time.Second)
	if droppedAt < 0 {
		t.Fatal("the member was never stopped at a refresh after 100 ms; test exercises nothing")
	}
	if info, ok := k.Info(dropped); !ok || info.State == Stopped {
		t.Errorf("member dropped at %v while stopped is %v at 20 s, want resumed", droppedAt, info.State)
	}
}

// TestRefreshChargesJoinerFromAdoption: a process that ran uncontrolled
// for three seconds and then joins principal 1 is read when it is
// adopted, as the runner's join reads it, so only what it runs
// afterwards is charged. Its second of past CPU, charged, would hold
// principal 1 ineligible for about a second after the join.
func TestRefreshChargesJoinerFromAdoption(t *testing.T) {
	k := NewKernel()
	first := k.SpawnStopped("u1", 0, Spin())
	other := k.SpawnStopped("v1", 0, Spin())
	joiner := k.Spawn("u2", 0, Spin())
	joinedAt := time.Duration(-1)
	_, err := StartALPS(k, AlpsConfig{
		Quantum:      10 * time.Millisecond,
		Cost:         PaperCosts(),
		RefreshEvery: time.Second,
		Refresh: func(k *Kernel) map[core.TaskID][]PID {
			if k.Now() < 3*time.Second {
				return map[core.TaskID][]PID{1: {first}}
			}
			if joinedAt < 0 {
				joinedAt = k.Now()
			}
			return map[core.TaskID][]PID{1: {first, joiner}}
		},
	}, []AlpsTask{
		{ID: 1, Share: 1, Pids: []PID{first}},
		{ID: 2, Share: 1, Pids: []PID{other}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cpu := func() time.Duration {
		a, _ := k.Info(first)
		b, _ := k.Info(joiner)
		return a.CPU + b.CPU
	}
	var before, after, past time.Duration
	k.At(3100*time.Millisecond, func() {
		before = cpu()
		info, _ := k.Info(joiner)
		past = info.CPU
	})
	k.At(4*time.Second, func() { after = cpu() })
	k.Run(5 * time.Second)
	if joinedAt < 0 || joinedAt > 3100*time.Millisecond {
		t.Fatalf("joined at %v, want between 3 s and 3.1 s", joinedAt)
	}
	// Principal 1 holds half the shares: about 450 ms of the 900 ms.
	if got := after - before; got < 300*time.Millisecond {
		t.Errorf("principal 1 ran %v in the 900 ms after its member joined with %v of CPU behind it, want about 450 ms",
			got, past)
	}
}

// TestDeadWorkloadRemoved: when every process of a task exits, the task
// is dropped and ALPS keeps scheduling the rest.
func TestDeadWorkloadRemoved(t *testing.T) {
	k := NewKernel()
	mortal := k.SpawnStopped("mortal", 0, SpinFor(100*time.Millisecond))
	immortal := k.SpawnStopped("immortal", 0, Spin())
	a, err := StartALPS(k, AlpsConfig{Quantum: 10 * time.Millisecond}, []AlpsTask{
		{ID: 1, Share: 1, Pids: []PID{mortal}},
		{ID: 2, Share: 1, Pids: []PID{immortal}},
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(5 * time.Second)
	if a.Scheduler().Len() != 1 {
		t.Errorf("scheduler still tracks %d tasks, want 1", a.Scheduler().Len())
	}
	info, _ := k.Info(immortal)
	if float64(info.CPU) < 0.9*float64(4*time.Second) {
		t.Errorf("survivor got only %v after the other task died", info.CPU)
	}
}

// TestALPSObservesInjectedFaults: an ALPS instance steering two
// equal-share spinners while one of them blocks (§2.4 charging), is
// woken, and finally exits (task-retirement path) at scripted virtual
// times. Each fault lands the first time w1 runs at or after its time.
func TestALPSObservesInjectedFaults(t *testing.T) {
	k := NewKernel()
	blocks, exits := spinUntil(time.Second, Action{Block: true}), spinUntil(3*time.Second, Action{Exit: true})
	w1 := k.SpawnStopped("w1", 0, BehaviorFunc(func(k *Kernel, pid PID) Action {
		if k.Now() < 2*time.Second {
			return blocks.Next(k, pid)
		}
		return exits.Next(k, pid)
	}))
	k.At(2*time.Second, func() { k.WakeProc(w1) })
	w2 := k.SpawnStopped("w2", 0, Spin())
	var recs []core.CycleRecord
	a, err := StartALPS(k, AlpsConfig{
		Quantum: 20 * time.Millisecond,
		OnCycle: func(r core.CycleRecord) { recs = append(recs, r) },
	}, []AlpsTask{
		{ID: 1, Share: 1, Pids: []PID{w1}},
		{ID: 2, Share: 1, Pids: []PID{w2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(4 * time.Second)

	if got := a.Scheduler().Len(); got != 1 {
		t.Errorf("scheduler has %d tasks after the exit, want 1", got)
	}
	if _, ok := k.Info(w1); ok {
		t.Error("exited process still visible")
	}
	blockedQuanta := 0
	var consumed1, consumed2 time.Duration
	for _, r := range recs {
		for _, ct := range r.Tasks {
			switch ct.ID {
			case 1:
				blockedQuanta += ct.BlockedQuanta
				consumed1 += ct.Consumed
			case 2:
				consumed2 += ct.Consumed
			}
		}
	}
	if blockedQuanta == 0 {
		t.Error("blocked phase never observed (§2.4 blocked-task charge path)")
	}
	// While w1 was blocked or gone (~2 of 4 seconds), w2 had the
	// machine to itself; its total consumption must clearly exceed w1's.
	if consumed2 <= consumed1 {
		t.Errorf("survivor consumed %v <= faulty task's %v", consumed2, consumed1)
	}
	info, ok := k.Info(w2)
	if !ok {
		t.Fatal("surviving workload vanished")
	}
	if info.State == Stopped {
		t.Error("survivor left SIGSTOPped after faulty task retired")
	}
}

// TestIOTaskDetectedBlocked: a task sleeping at measurement time is
// charged a blocked quantum (§2.4), visible in the cycle record.
func TestIOTaskDetectedBlocked(t *testing.T) {
	k := NewKernel()
	sleeper := k.SpawnStopped("sleeper", 0, &PeriodicIO{Exec: 5 * time.Millisecond, Wait: 500 * time.Millisecond})
	spinner := k.SpawnStopped("spin", 0, Spin())
	blocked := 0
	_, err := StartALPS(k, AlpsConfig{
		Quantum: 10 * time.Millisecond,
		OnCycle: func(rec core.CycleRecord) {
			for _, task := range rec.Tasks {
				if task.ID == 1 {
					blocked += task.BlockedQuanta
				}
			}
		},
	}, []AlpsTask{
		{ID: 1, Share: 1, Pids: []PID{sleeper}},
		{ID: 2, Share: 1, Pids: []PID{spinner}},
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Run(10 * time.Second)
	if blocked == 0 {
		t.Error("sleeping task was never charged a blocked quantum")
	}
}
