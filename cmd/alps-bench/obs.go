package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"alps/internal/core"
	"alps/internal/obs"
	"alps/internal/osproc"
	"alps/internal/trace"
	"alps/internal/tshist"
)

// runObs measures the cost the observability layer adds per quantum and
// writes BENCH_obs.json. Each benchmark runs the same deterministic
// schedule under three observer configurations:
//
//   - off:      Config.Observer == nil, the production default
//   - noop:     an enabled observer that discards every event
//   - metrics:  the full MetricsObserver feeding a live registry
//   - recorder: the cmd/alps production fan-out — MetricsObserver plus
//     the always-on flight recorder's ring buffer
//
// Two loops are timed. "core" is the bare core.Scheduler.TickQuantum —
// the most hostile denominator possible (no process table, no signal
// delivery), so it shows the raw per-event cost. "runner" is the real
// quantum loop — osproc.Runner.Step over a deterministic in-memory
// process table (the same FaultSys fake the fault-injection tests use),
// including sampling, signal delivery and health accounting, which is
// what a production tick does between syscalls.
//
// The acceptance budget is the paper's §3.2 overhead framing: the
// controller's CPU cost per tick as a fraction of the quantum it
// schedules. With the observer disabled that fraction must stay under
// 5% — i.e. compiling the instrumentation in costs the workload
// essentially nothing when nobody is watching. (The off variant runs
// the exact production path: the same nil guards, none of the event
// construction; the disabled-path alloc count is separately pinned to
// zero by core's TestDisabledObserverAllocs.) The recorder variant gets
// the same 5% budget: the flight recorder is always on in cmd/alps, so
// its fully-loaded tick must also fit the §3.2 framing. Both budgets
// only warn.
//
// The one hard gate is the history sampler's: one tshist.Store.Sample
// over a production-shaped registry must cost at most 1% of the quantum,
// so that retained history stays too cheap to matter.
func runObs() error {
	coreIters, runnerIters, samplerIters := 100_000, 20_000, 20_000
	if *quick {
		coreIters, runnerIters, samplerIters = 20_000, 4_000, 4_000
	}
	// Each variant runs `rounds` interleaved repetitions and keeps the
	// fastest; scheduling noise is additive, so min-of-k converges on
	// the true cost far faster than one long run on a shared host.
	const rounds = 5
	const nTasks = 32
	const q = 10 * time.Millisecond

	cpuNow := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}

	// Bare algorithm: every task a busy loop consuming its full
	// entitlement, a spread of shares so postponement and cycle lengths
	// vary.
	coreBench := func(o obs.Observer) (float64, error) {
		read := func(id core.TaskID) (core.Progress, bool) {
			return core.Progress{Consumed: q}, true
		}
		s := core.New(core.Config{Quantum: q, Observer: o})
		for i := 0; i < nTasks; i++ {
			if err := s.Add(core.TaskID(i), int64(1+i%8)); err != nil {
				return 0, err
			}
		}
		for i := 0; i < coreIters/10; i++ { // warmup
			s.TickQuantum(read)
		}
		start := cpuNow()
		for i := 0; i < coreIters; i++ {
			s.TickQuantum(read)
		}
		return float64(cpuNow()-start) / float64(coreIters), nil
	}

	// Full quantum loop: Runner.Step over a deterministic in-memory
	// process table, one busy-loop process per task. Advancing the
	// virtual clock by Q between steps makes consumption, exhaustion
	// and the suspend/resume signal traffic realistic.
	runnerBench := func(o obs.Observer, reg *obs.Registry) (float64, error) {
		fs := osproc.NewFaultSys()
		tasks := make([]osproc.Task, nTasks)
		for i := 0; i < nTasks; i++ {
			pid := 100 + i
			fs.AddProc(osproc.FaultProc{PID: pid, Start: 1})
			tasks[i] = osproc.Task{ID: core.TaskID(i), Share: int64(1 + i%8), PIDs: []int{pid}}
		}
		r, err := osproc.NewRunner(osproc.Config{
			Quantum: q, Sys: fs, Observer: o, Metrics: reg,
		}, tasks)
		if err != nil {
			return 0, err
		}
		defer r.Release()
		step := func() {
			fs.Advance(q)
			r.Step()
		}
		for i := 0; i < runnerIters/10; i++ { // warmup
			step()
		}
		start := cpuNow()
		for i := 0; i < runnerIters; i++ {
			step()
		}
		return float64(cpuNow()-start) / float64(runnerIters), nil
	}

	type variant struct {
		Name        string  `json:"name"`
		NsPerTick   float64 `json:"ns_per_tick"`
		OverheadPct float64 `json:"overhead_vs_off_pct"`
	}
	type bench struct {
		Name       string    `json:"name"`
		Iterations int       `json:"iterations"`
		Variants   []variant `json:"variants"`
	}
	observers := []struct {
		name string
		mk   func(*obs.Registry) obs.Observer
	}{
		{"off", func(*obs.Registry) obs.Observer { return nil }},
		{"noop", func(*obs.Registry) obs.Observer { return obs.ObserverFunc(func(obs.Event) {}) }},
		{"metrics", func(reg *obs.Registry) obs.Observer { return obs.NewMetricsObserver(reg) }},
		{"recorder", func(reg *obs.Registry) obs.Observer {
			return obs.Multi(obs.NewMetricsObserver(reg), trace.NewRecorder(trace.RecorderConfig{}))
		}},
	}
	finish := func(b *bench) {
		off := b.Variants[0].NsPerTick
		for i := range b.Variants {
			if off > 0 {
				b.Variants[i].OverheadPct = 100 * (b.Variants[i].NsPerTick - off) / off
			}
		}
	}

	coreB := bench{Name: "core", Iterations: coreIters}
	runnerB := bench{Name: "runner", Iterations: runnerIters}
	for _, o := range observers {
		coreB.Variants = append(coreB.Variants, variant{Name: o.name})
		runnerB.Variants = append(runnerB.Variants, variant{Name: o.name})
	}
	keepMin := func(best *float64, ns float64) {
		if *best == 0 || ns < *best {
			*best = ns
		}
	}
	for round := 0; round < rounds; round++ {
		for i, o := range observers {
			ns, err := coreBench(o.mk(obs.NewRegistry()))
			if err != nil {
				return err
			}
			keepMin(&coreB.Variants[i].NsPerTick, ns)
			reg := obs.NewRegistry()
			ns, err = runnerBench(o.mk(reg), reg)
			if err != nil {
				return err
			}
			keepMin(&runnerB.Variants[i].NsPerTick, ns)
		}
	}
	finish(&coreB)
	finish(&runnerB)

	// History-sampler cost over a production-shaped registry: the full
	// cmd/alps gauge surface (auditor + flight recorder) plus the
	// per-task share-error histograms a 32-task run accumulates.
	histReg := obs.NewRegistry()
	trace.NewAuditor(trace.AuditorConfig{}).Register(histReg)
	trace.NewRecorder(trace.RecorderConfig{}).Register(histReg)
	for i := 0; i < nTasks; i++ {
		histReg.Histogram(fmt.Sprintf(`alps_share_error_ratio{task="%d"}`, i),
			"bench fill", obs.RatioBuckets).Observe(0.1)
	}
	store := tshist.New(tshist.Config{Source: histReg})
	epoch := time.Now()
	var sampleNs float64
	for round := 0; round < rounds; round++ {
		for i := 0; i < samplerIters/10; i++ { // warmup
			store.Sample(epoch)
		}
		start := cpuNow()
		for i := 0; i < samplerIters; i++ {
			store.Sample(epoch)
		}
		keepMin(&sampleNs, float64(cpuNow()-start)/float64(samplerIters))
	}

	// Quantum-loop overhead: controller CPU per tick over the quantum
	// it schedules (the §3.2 overhead statistic), with the observer
	// disabled and enabled.
	pctOfQuantum := func(ns float64) float64 { return 100 * ns / float64(q.Nanoseconds()) }
	disabledPct := pctOfQuantum(runnerB.Variants[0].NsPerTick)
	enabledPct := pctOfQuantum(runnerB.Variants[2].NsPerTick)
	recorderPct := pctOfQuantum(runnerB.Variants[3].NsPerTick)
	samplePct := pctOfQuantum(sampleNs)
	report := struct {
		Tasks                int     `json:"tasks"`
		QuantumNs            int64   `json:"quantum_ns"`
		Benchmarks           []bench `json:"benchmarks"`
		DisabledPctOfQuantum float64 `json:"disabled_quantum_loop_overhead_pct"`
		MetricsPctOfQuantum  float64 `json:"metrics_quantum_loop_overhead_pct"`
		RecorderPctOfQuantum float64 `json:"recorder_quantum_loop_overhead_pct"`
		DisabledWithin5Pct   bool    `json:"disabled_within_5pct"`
		RecorderWithin5Pct   bool    `json:"recorder_within_5pct"`
		SamplerSeries        int     `json:"sampler_series"`
		SamplerNsPerSample   float64 `json:"sampler_ns_per_sample"`
		SamplerPctOfQuantum  float64 `json:"sampler_pct_of_quantum"`
		SamplerWithin1Pct    bool    `json:"sampler_within_1pct"`
	}{
		Tasks:                nTasks,
		QuantumNs:            int64(q),
		Benchmarks:           []bench{coreB, runnerB},
		DisabledPctOfQuantum: disabledPct,
		MetricsPctOfQuantum:  enabledPct,
		RecorderPctOfQuantum: recorderPct,
		DisabledWithin5Pct:   disabledPct < 5,
		RecorderWithin5Pct:   recorderPct < 5,
		SamplerSeries:        len(histReg.Snapshot()),
		SamplerNsPerSample:   sampleNs,
		SamplerPctOfQuantum:  samplePct,
		SamplerWithin1Pct:    samplePct <= 1,
	}

	fmt.Println("Observability overhead per quantum (CPU time, getrusage, min of", rounds, "rounds)")
	for _, b := range report.Benchmarks {
		fmt.Printf("  %s loop (%d iters/round):\n", b.Name, b.Iterations)
		for _, v := range b.Variants {
			fmt.Printf("    %-8s %9.1f ns/tick  %+6.2f%% vs off\n", v.Name, v.NsPerTick, v.OverheadPct)
		}
	}
	fmt.Printf("  quantum-loop overhead, observer disabled:  %.3f%% of Q=%v (budget 5%%)\n", disabledPct, q)
	fmt.Printf("  quantum-loop overhead, metrics enabled:    %.3f%% of Q=%v\n", enabledPct, q)
	fmt.Printf("  quantum-loop overhead, flight recorder on: %.3f%% of Q=%v (budget 5%%)\n", recorderPct, q)
	if !report.DisabledWithin5Pct {
		fmt.Println("  WARNING: disabled quantum-loop overhead exceeds the 5% budget on this host")
	}
	if !report.RecorderWithin5Pct {
		fmt.Println("  WARNING: flight-recorder quantum-loop overhead exceeds the 5% budget on this host")
	}
	fmt.Printf("  history sampler: %d series, %.0f ns/sample = %.4f%% of Q=%v (gate <= 1%%)\n",
		report.SamplerSeries, sampleNs, samplePct, q)

	dir := *out
	if dir == "" {
		dir = "."
	}
	path := filepath.Join(dir, "BENCH_obs.json")
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", path)
	// The gate fails the run only after the report is on disk, so the
	// numbers that show the regression are kept.
	if !report.SamplerWithin1Pct {
		return fmt.Errorf("history sampler costs %.4f%% of the quantum (gate 1%%)", samplePct)
	}
	return nil
}
