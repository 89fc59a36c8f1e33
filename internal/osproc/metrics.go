package osproc

import (
	"time"

	"alps/internal/obs"
)

// runnerMetrics holds the Runner's scrape-surface instruments. The Health
// counters themselves are exported via CounterFunc/GaugeFunc reading the
// same atomics the control loop writes — one source of truth, so /metrics
// and Health() can never disagree — while the latency distributions are
// real histograms observed on the hot path (nil-guarded, so a Runner
// without a registry pays a single branch).
type runnerMetrics struct {
	cycleLateness *obs.Histogram // how late each step fired past its quantum
	sampleDur     *obs.Histogram // wall time of one /proc/<pid>/stat read
	signalDur     *obs.Histogram // wall time of one signal delivery
}

// registerMetrics wires the runner's health telemetry and latency
// histograms onto reg. Counter/gauge values are read from the runner's
// healthCounters atomics at scrape time.
func (r *Runner) registerMetrics(reg *obs.Registry) {
	h := &r.health
	reg.CounterFunc("alps_runner_ticks_total",
		"Algorithm invocations, including catch-up invocations for overrun quanta.",
		h.ticks.Load)
	reg.CounterFunc("alps_runner_vanished_pids_total",
		"PIDs dropped because the process exited or became a zombie.",
		h.vanished.Load)
	reg.CounterFunc("alps_runner_reused_pids_total",
		"PIDs dropped because the kernel recycled the number for an unrelated process.",
		h.reused.Load)
	reg.CounterFunc("alps_runner_signal_failures_total",
		"Signal deliveries that failed with the process still present.",
		h.sigFailures.Load)
	reg.CounterFunc("alps_runner_unsignalable_pids_total",
		"PIDs dropped after repeated consecutive signal or read denials.",
		h.unsignalable.Load)
	reg.CounterFunc("alps_runner_missed_ticks_total",
		"Whole quanta the timer overran.",
		h.missedTicks.Load)
	reg.CounterFunc("alps_runner_catchup_ticks_total",
		"Extra algorithm invocations issued to compensate missed quanta.",
		h.catchUpTicks.Load)
	reg.CounterFunc("alps_runner_refresh_errors_total",
		"Membership-refresh entries ignored because they name an unknown task.",
		h.refreshErrors.Load)
	reg.CounterFunc("alps_runner_reconfigs_total",
		"Applied live-reconfiguration changes (SIGHUP, /admin/config).",
		h.reconfigs.Load)
	reg.CounterFunc("alps_runner_overload_degrades_total",
		"Overload-guard degradations (effective quantum stretched one level).",
		h.overloadDegrades.Load)
	reg.CounterFunc("alps_runner_overload_recovers_total",
		"Overload-guard recoveries (effective quantum restored one level).",
		h.overloadRecovers.Load)
	reg.GaugeFunc("alps_runner_degrade_level",
		"Current overload degradation level (0 = nominal).",
		func() float64 { return float64(h.degradeLevel.Load()) })
	reg.GaugeFunc("alps_runner_effective_quantum_seconds",
		"Quantum currently in force (configured quantum << degrade level).",
		func() float64 { return time.Duration(h.effQuantumNS.Load()).Seconds() })
	reg.GaugeFunc("alps_runner_dormant_tasks",
		"Tasks out of the share total after sleeping through a whole cycle: left running unstopped and only watched until they use CPU.",
		func() float64 { return float64(h.dormant.Load()) })
	reg.GaugeFunc("alps_runner_last_lateness_seconds",
		"How late the most recent step fired past its quantum.",
		func() float64 { return time.Duration(h.lastLatenessNS.Load()).Seconds() })
	reg.GaugeFunc("alps_runner_max_lateness_seconds",
		"Worst observed step lateness.",
		func() float64 { return time.Duration(h.maxLatenessNS.Load()).Seconds() })
	r.mx = &runnerMetrics{
		cycleLateness: reg.Histogram("alps_runner_cycle_lateness_seconds",
			"Distribution of per-step timer lateness.", obs.LatencyBuckets),
		sampleDur: reg.Histogram("alps_runner_sample_duration_seconds",
			"Wall time of one /proc/<pid>/stat read.", obs.LatencyBuckets),
		signalDur: reg.Histogram("alps_runner_signal_duration_seconds",
			"Wall time of one SIGSTOP/SIGCONT delivery.", obs.LatencyBuckets),
	}
}
