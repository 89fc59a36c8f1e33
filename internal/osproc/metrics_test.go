package osproc

import (
	"fmt"
	"strings"
	"testing"

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

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	h := r.Health()
	for _, want := range []string{
		fmt.Sprintf("alps_runner_ticks_total %d", h.Ticks),
		fmt.Sprintf("alps_runner_read_retries_total %d", h.ReadRetries),
		"alps_runner_last_lateness_seconds",
		"alps_runner_max_lateness_seconds",
		// One task read per tick, except tick 1 which only admits the
		// task (no measurement before first eligibility).
		fmt.Sprintf("alps_runner_sample_duration_seconds_count %d", h.Ticks-1),
		"alps_runner_cycle_lateness_seconds_bucket",
		"alps_runner_signal_duration_seconds_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.ReadRetries == 0 {
		t.Error("scenario did not exercise read retries")
	}
	// The Observer rode along: the core emitted events through the
	// runner's stamping bridge.
	if len(log.Filter(obs.KindMeasure)) == 0 {
		t.Error("observer saw no measurements")
	}
}
