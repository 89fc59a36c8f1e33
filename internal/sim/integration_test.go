package sim

import (
	"testing"
	"time"

	"alps/internal/core"
)

// startWorkload spawns n stopped spinners and returns ALPS tasks mapping
// task i -> pid i with the given shares.
func startWorkload(k *Kernel, shares []int64) []AlpsTask {
	tasks := make([]AlpsTask, len(shares))
	for i, s := range shares {
		pid := k.SpawnStopped("w", 0, Spin())
		tasks[i] = AlpsTask{ID: core.TaskID(i), Share: s, Pids: []PID{pid}}
	}
	return tasks
}

// spinUntil is a compute-bound behaviour that returns last instead of
// more CPU the first time it runs at or after virtual time at: a process
// that exits or blocks mid-run. It computes in 1 ms segments, so last
// lands within 1 ms of CPU after at.
func spinUntil(at time.Duration, last Action) Behavior {
	return BehaviorFunc(func(k *Kernel, pid PID) Action {
		if left := at - k.Now(); left > 0 {
			return Action{Run: min(left, time.Millisecond)}
		}
		return last
	})
}

// TestProportionalSharing checks the headline behaviour: three
// compute-bound processes with shares 1:2:3 under a 10 ms quantum receive
// CPU time in close to a 1:2:3 ratio.
func TestProportionalSharing(t *testing.T) {
	k := NewKernel()
	shares := []int64{1, 2, 3}
	tasks := startWorkload(k, shares)
	a, err := StartALPS(k, AlpsConfig{Quantum: 10 * time.Millisecond, Cost: PaperCosts()}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	k.Run(60 * time.Second)

	var total time.Duration
	cpu := make([]time.Duration, len(tasks))
	for i, task := range tasks {
		info, ok := k.Info(task.Pids[0])
		if !ok {
			t.Fatalf("task %d process vanished", i)
		}
		cpu[i] = info.CPU
		total += info.CPU
	}
	if total < 55*time.Second {
		t.Fatalf("workload consumed only %v of 60s; ALPS overhead %v", total, a.CPU())
	}
	for i, task := range tasks {
		got := float64(cpu[i]) / float64(total)
		want := float64(task.Share) / 6.0
		if diff := got - want; diff > 0.03 || diff < -0.03 {
			t.Errorf("task %d: got %.3f of CPU, want %.3f (cpu=%v)", i, got, want, cpu[i])
		}
	}
	if over := float64(a.CPU()) / float64(k.Now()); over > 0.01 {
		t.Errorf("ALPS overhead %.4f%% exceeds 1%%", over*100)
	}
}

// TestKernelEqualSharing checks the substrate alone: without ALPS, the
// 4.4BSD scheduler gives compute-bound equals roughly equal CPU.
func TestKernelEqualSharing(t *testing.T) {
	k := NewKernel()
	var pids []PID
	for i := 0; i < 4; i++ {
		pids = append(pids, k.Spawn("spin", 0, Spin()))
	}
	k.Run(40 * time.Second)
	var total time.Duration
	for _, pid := range pids {
		info, _ := k.Info(pid)
		total += info.CPU
	}
	if total < 39*time.Second {
		t.Fatalf("CPU idle too long: busy %v of 40s", total)
	}
	for _, pid := range pids {
		info, _ := k.Info(pid)
		frac := float64(info.CPU) / float64(total)
		if frac < 0.20 || frac > 0.30 {
			t.Errorf("pid %d got %.3f of CPU, want ~0.25", pid, frac)
		}
	}
}
