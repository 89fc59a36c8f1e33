package osproc

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"alps/internal/core"
	"alps/internal/obs"
)

// TestRunnerMetricsExposition runs a short fault scenario and checks that
// the scrape surface mirrors Health exactly (they read the same atomics)
// and that the latency histograms saw the hot path.
func TestRunnerMetricsExposition(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1, State: 'R', Rate: 1})
	reg := obs.NewRegistry()
	log := obs.NewEventLog()
	r := newFaultRunner(t, fs, Config{Metrics: reg, Observer: log}, []Task{
		{ID: 1, Share: 1, PIDs: []int{10}},
	})
	fs.Inject(10, CallRead, FaultEINTR)
	for i := 0; i < 20; i++ {
		stepQuantum(fs, r)
	}
	reads := 0
	for _, line := range fs.Log {
		if strings.HasPrefix(line, "read ") {
			reads++
		}
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	h := r.Health()
	for _, want := range []string{
		fmt.Sprintf("alps_runner_ticks_total %d", h.Ticks),
		"alps_runner_last_lateness_seconds",
		"alps_runner_max_lateness_seconds",
		// One observation per /proc read, failed or not: the join
		// baseline, then one per measured tick.
		fmt.Sprintf("alps_runner_sample_duration_seconds_count %d", reads),
		"alps_runner_cycle_lateness_seconds_bucket",
		"alps_runner_signal_duration_seconds_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	requireNoCPULost(t, r, fs, log, 1, 10)
	// The Observer rode along: the core emitted events through the
	// runner's stamping bridge.
	if len(log.Filter(obs.KindMeasure)) == 0 {
		t.Error("observer saw no measurements")
	}
}

// TestSampleDurationTimesEveryRead: alps_runner_sample_duration_seconds
// times each /proc read where it happens, on whichever goroutine runs
// it. With the sampler pool on, a 5 ms stalled read of one of two due
// PIDs lands in the histogram's sum.
func TestSampleDurationTimesEveryRead(t *testing.T) {
	const slow = 5 * time.Millisecond
	fs := NewFaultSys()
	fs.SlowDelay = slow
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	fs.AddProc(FaultProc{PID: 20, Start: 1})
	reg := obs.NewRegistry()
	r := newFaultRunner(t, fs, Config{Samplers: 2, Metrics: reg}, []Task{
		{ID: 1, Share: 1, PIDs: []int{10}},
		{ID: 2, Share: 1, PIDs: []int{20}},
	})
	defer r.Release()
	for dueNext(r.sched) < 2 {
		if r.sched.Tick() > 50 {
			t.Fatal("the two tasks never fell due in one quantum")
		}
		stepQuantum(fs, r)
	}
	sum := reg.Histogram("alps_runner_sample_duration_seconds", "", obs.LatencyBuckets).Sum
	before := sum()
	fs.Inject(20, CallRead, FaultSlow)
	stepQuantum(fs, r)
	if got := sum() - before; got < slow.Seconds()-1e-9 {
		t.Errorf("histogram sum rose by %gs over the slow read's quantum, want at least %gs", got, slow.Seconds())
	}
}

// TestDormantTasksGauge: sleepers that go dormant show up in
// Health.DormantTasks, its String, and the alps_runner_dormant_tasks
// gauge; a sleeper that wakes leaves the count. Going dormant is not a
// fault: none of the failure counters moves.
func TestDormantTasksGauge(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1, State: 'R', Rate: 1})
	tasks := []Task{{ID: 1, Share: 2, PIDs: []int{10}}}
	for i := 0; i < 3; i++ {
		pid := 20 + i
		fs.AddProc(FaultProc{PID: pid, Start: uint64(pid), State: 'S'})
		tasks = append(tasks, Task{ID: core.TaskID(2 + i), Share: 1, PIDs: []int{pid}})
	}
	reg := obs.NewRegistry()
	r := newFaultRunner(t, fs, Config{Metrics: reg}, tasks)
	gauge := func() string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, "alps_runner_dormant_tasks ") {
				return line
			}
		}
		t.Fatalf("exposition lacks alps_runner_dormant_tasks:\n%s", b.String())
		return ""
	}
	for i := 0; i < 40; i++ {
		stepQuantum(fs, r)
	}
	h := r.Health()
	if h.DormantTasks != 3 || r.Scheduler().NumDormant() != 3 {
		t.Fatalf("DormantTasks = %d (scheduler %d), want the 3 sleepers", h.DormantTasks, r.Scheduler().NumDormant())
	}
	if got := gauge(); got != "alps_runner_dormant_tasks 3" {
		t.Errorf("gauge line %q, want 3", got)
	}
	if !strings.Contains(h.String(), " dormant=3 ") {
		t.Errorf("Health.String() lacks dormant=3: %s", h)
	}
	for _, pid := range fs.StoppedPIDs() {
		if pid >= 20 {
			t.Errorf("dormant sleeper pid %d is stopped", pid)
		}
	}

	fs.SetState(21, 'R')
	for i := 0; i < 3; i++ {
		stepQuantum(fs, r)
	}
	if h = r.Health(); h.DormantTasks != 2 || gauge() != "alps_runner_dormant_tasks 2" {
		t.Errorf("after pid 21 woke: DormantTasks = %d, gauge %q, want 2", h.DormantTasks, gauge())
	}
	if f := h.VanishedPIDs + h.ReusedPIDs + h.SignalFailures + h.UnsignalablePIDs + h.RefreshErrors; f != 0 {
		t.Errorf("dormancy moved the failure counters: %s", h)
	}
}
