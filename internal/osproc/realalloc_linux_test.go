//go:build !race

package osproc

import (
	"os"
	"os/exec"
	"runtime"
	"sort"
	"syscall"
	"testing"
	"time"

	"alps/internal/core"
)

// TestRealSamplingZeroAllocs extends the alloc gate to real processes:
// over RealSys, with no observer, a steady-state Step allocates nothing,
// sequential or with a sampler pool. It also checks the descriptor
// lifecycle: a killed and reaped member is reported dead on its next
// sample and its descriptor closed, and Release leaves the process's
// descriptor count where NewRunner found it.
func TestRealSamplingZeroAllocs(t *testing.T) {
	requireProc(t)
	if testing.Short() {
		t.Skip("spawns 52 processes")
	}
	var cmds []*exec.Cmd
	spawn := func(name string, args ...string) {
		cmd := exec.Command(name, args...)
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			t.Skipf("cannot spawn %s: %v", name, err)
		}
		cmds = append(cmds, cmd)
	}
	t.Cleanup(func() {
		for _, c := range cmds {
			_ = c.Process.Kill()
			_ = c.Wait()
		}
	})
	for i := 0; i < 50; i++ {
		spawn("sleep", "1000")
	}
	spawn("/bin/sh", "-c", "while :; do :; done")
	spawn("/bin/sh", "-c", "while :; do :; done")
	tasks := make([]Task, len(cmds))
	for i, c := range cmds {
		tasks[i] = Task{ID: core.TaskID(i + 1), Share: int64(i%8) + 1, PIDs: []int{c.Process.Pid}}
	}

	for _, samplers := range []int{1, 2} {
		fds := openFDs(t)
		r, err := NewRunner(Config{Quantum: 10 * time.Millisecond, Samplers: samplers}, tasks)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			r.Step()
		}
		const measure = 200
		var before, after runtime.MemStats
		samples := make([]float64, 0, measure)
		for i := 0; i < measure; i++ {
			runtime.ReadMemStats(&before)
			r.Step()
			runtime.ReadMemStats(&after)
			samples = append(samples, float64(after.Mallocs-before.Mallocs))
		}
		sort.Float64s(samples)
		if med := samples[len(samples)/2]; med != 0 {
			t.Errorf("Samplers=%d: steady-state Step over RealSys allocates: median %.0f (p90 %.0f) over %d steps, want 0",
				samplers, med, samples[len(samples)*9/10], measure)
		}

		if samplers == 2 {
			// Kill and reap the first sleeper; its next sample finds the
			// pinned descriptor's task gone.
			victim := cmds[0]
			pid := victim.Process.Pid
			if !statFDOpen(pid) {
				t.Fatalf("no descriptor open for sampled pid %d", pid)
			}
			// Reaping releases the child's own handle (os.Process may
			// hold a pidfd); that one is not the runner's.
			held := openFDs(t)
			_ = victim.Process.Kill()
			_ = victim.Wait()
			fds -= held - openFDs(t)
			if _, ok := r.read(tasks[0].ID); ok {
				t.Error("killed and reaped process still reported alive")
			}
			if statFDOpen(pid) {
				t.Error("descriptor of the dead process left open")
			}
		}
		r.Release()
		if got := openFDs(t); got != fds {
			t.Errorf("Samplers=%d: %d descriptors open after Release, %d before NewRunner", samplers, got, fds)
		}
	}
}

// openFDs counts this process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}
