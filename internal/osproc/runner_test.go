package osproc

import (
	"context"
	"os/exec"
	"testing"
	"time"

	"alps/internal/core"
)

// spawnSpinner starts a shell busy-loop and registers cleanup.
func spawnSpinner(t *testing.T) int {
	t.Helper()
	cmd := exec.Command("/bin/sh", "-c", "while :; do :; done")
	if err := cmd.Start(); err != nil {
		t.Skipf("cannot spawn shell: %v", err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	return cmd.Process.Pid
}

func TestNewRunnerValidation(t *testing.T) {
	if _, err := NewRunner(Config{Quantum: time.Millisecond}, nil); err == nil {
		t.Error("sub-tick quantum should error")
	}
	if _, err := NewRunner(Config{Quantum: 20 * time.Millisecond}, []Task{{ID: 1, Share: 0}}); err == nil {
		t.Error("zero share should error")
	}
}

func TestRunnerStopsAndReleases(t *testing.T) {
	requireProc(t)
	pid := spawnSpinner(t)
	r, err := NewRunner(Config{Quantum: 20 * time.Millisecond}, []Task{
		{ID: 1, Share: 1, PIDs: []int{pid}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// NewRunner SIGSTOPs the workload.
	time.Sleep(50 * time.Millisecond)
	st, err := ReadStat(pid)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != 'T' {
		t.Errorf("state after NewRunner = %c, want T (stopped)", st.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := r.Run(ctx); err != context.DeadlineExceeded {
		t.Errorf("Run returned %v", err)
	}
	// Release must have resumed the process.
	time.Sleep(50 * time.Millisecond)
	st, err = ReadStat(pid)
	if err != nil {
		t.Fatal(err)
	}
	if st.State == 'T' {
		t.Error("process left stopped after Run returned")
	}
	if r.Health().Ticks == 0 {
		t.Error("runner processed no quanta")
	}
}

// TestRunnerProportions is the end-to-end real-OS check: three busy
// loops with shares 1:2:3 for a few seconds. Tolerances are loose — this
// is a live machine, and the host may have other load.
func TestRunnerProportions(t *testing.T) {
	requireProc(t)
	if testing.Short() {
		t.Skip("short mode")
	}
	pids := []int{spawnSpinner(t), spawnSpinner(t), spawnSpinner(t)}
	shares := []int64{1, 2, 3}
	var tasks []Task
	for i, pid := range pids {
		tasks = append(tasks, Task{ID: core.TaskID(i), Share: shares[i], PIDs: []int{pid}})
	}
	var cycles int
	r, err := NewRunner(Config{
		Quantum: 20 * time.Millisecond,
		OnCycle: func(core.CycleRecord) { cycles++ },
	}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = r.Run(ctx)

	var total time.Duration
	cpus := make([]time.Duration, len(pids))
	for i, pid := range pids {
		st, err := ReadStat(pid)
		if err != nil {
			t.Fatal(err)
		}
		cpus[i] = st.CPU
		total += st.CPU
	}
	if total < 2*time.Second {
		t.Skipf("workload got only %v of CPU; host too loaded for a meaningful check", total)
	}
	if cycles == 0 {
		t.Error("no cycles completed")
	}
	for i := range pids {
		got := float64(cpus[i]) / float64(total)
		want := float64(shares[i]) / 6
		if got < want-0.12 || got > want+0.12 {
			t.Errorf("pid %d share %d: got %.3f of CPU, want ~%.3f (cpus=%v)", pids[i], shares[i], got, want, cpus)
		}
	}
}

// TestRunnerStepDeadWorkload: when the only controlled process dies, Step
// reports done.
func TestRunnerStepDeadWorkload(t *testing.T) {
	requireProc(t)
	cmd := exec.Command("/bin/sh", "-c", "exit 0")
	if err := cmd.Start(); err != nil {
		t.Skipf("cannot spawn shell: %v", err)
	}
	pid := cmd.Process.Pid
	_ = cmd.Wait() // reaped: pid is gone (or a zombie of ours — also gone from /proc? reaped = gone)
	r, err := NewRunner(Config{Quantum: 20 * time.Millisecond}, []Task{
		{ID: 1, Share: 1, PIDs: []int{pid}},
	})
	if err != nil {
		// Stopping an exited pid fails — that's also acceptable.
		t.Logf("NewRunner on dead pid: %v", err)
		return
	}
	done := false
	for i := 0; i < 5 && !done; i++ {
		done = r.Step()
	}
	if !done {
		t.Error("runner never noticed the workload died")
	}
	r.Release()
}

func TestRunnerOnError(t *testing.T) {
	requireProc(t)
	var got []error
	r, err := NewRunner(Config{
		Quantum: 20 * time.Millisecond,
		OnError: func(e error) { got = append(got, e) },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.errf("synthetic %d", 7)
	if len(got) != 1 {
		t.Fatalf("OnError received %d errors", len(got))
	}
}
