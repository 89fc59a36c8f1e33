// Package exp contains the experiment harnesses that regenerate every
// table and figure of the ALPS paper's evaluation (§3–§5). Each harness
// builds a simulated machine (internal/sim), installs one or more ALPS
// instances running the real algorithm (internal/core), executes the
// paper's workload, and reduces the traces with internal/metrics.
package exp

import (
	"fmt"
	"time"

	"alps/internal/core"
	"alps/internal/metrics"
	"alps/internal/sim"
)

// RunSpec describes a single synthetic-workload ALPS run (the §3 setup):
// one ALPS instance controlling len(Shares) processes on an otherwise
// idle machine.
type RunSpec struct {
	// Shares holds one share count per workload process.
	Shares []int64
	// Quantum is the ALPS quantum Q.
	Quantum time.Duration
	// Cycles is the number of measured cycles (the paper uses 200).
	Cycles int
	// Warmup cycles are discarded before measurement begins.
	Warmup int
	// WarmupTime, if positive, extends the warm-up to cover at least
	// this much virtual time (the kernel's estcpu/loadavg feedback
	// takes ~1 minute of wall time to converge; the paper likewise
	// waits for the workload to reach a steady state before
	// measuring).
	WarmupTime time.Duration
	// MaxDuration bounds the run in virtual time even if the cycle
	// target is never reached (e.g. past the breakdown threshold).
	MaxDuration time.Duration
	// Offset delays ALPS's first quantum boundary; distinct offsets
	// give independent trials.
	Offset time.Duration
	// DisableLazySampling turns off the §2.3 optimization.
	DisableLazySampling bool
	// Cost is the ALPS operation cost model; use sim.PaperCosts() for
	// paper-comparable overhead numbers.
	Cost sim.CostModel
	// Behaviors optionally overrides the behavior of individual
	// workload processes (by index); nil entries default to a
	// compute-bound spinner.
	Behaviors []sim.Behavior
}

// CyclePoint is one cycle of instrumentation with its wall-clock stamp.
type CyclePoint struct {
	Wall   time.Duration
	Record core.CycleRecord
}

// RunResult is the trace of one run.
type RunResult struct {
	Spec   RunSpec
	Cycles []CyclePoint
	// AlpsCPU is the CPU consumed by the ALPS process itself.
	AlpsCPU time.Duration
	// Wall is the experiment duration (virtual time).
	Wall time.Duration
	// WorkloadCPU is the CPU consumed by the workload processes.
	WorkloadCPU time.Duration
	// Measurements and Signals count ALPS's operations.
	Measurements int64
	Signals      int64
	// MissedFirings counts quantum boundaries ALPS was too late for —
	// nonzero values signal loss of control (§4.2).
	MissedFirings int64
}

// OverheadPct returns ALPS CPU as a percentage of wall time, the paper's
// overhead metric (§3.2).
func (r RunResult) OverheadPct() float64 {
	if r.Wall == 0 {
		return 0
	}
	return 100 * float64(r.AlpsCPU) / float64(r.Wall)
}

// MeanRMSErrorPct reduces the cycle log to the paper's accuracy metric
// (§3.1): for every cycle, the RMS of per-process relative errors of
// actual vs ideal (share_i·Q) CPU time; then the mean over cycles,
// as a percentage.
func (r RunResult) MeanRMSErrorPct() (float64, error) {
	if len(r.Cycles) == 0 {
		return 0, fmt.Errorf("exp: no cycles recorded")
	}
	q := float64(r.Spec.Quantum)
	rms := make([]float64, 0, len(r.Cycles))
	for _, c := range r.Cycles {
		actual := make([]float64, len(c.Record.Tasks))
		ideal := make([]float64, len(c.Record.Tasks))
		for i, t := range c.Record.Tasks {
			actual[i] = float64(t.Consumed)
			ideal[i] = float64(t.Share) * q
		}
		v, err := metrics.RMSRelativeError(actual, ideal)
		if err != nil {
			return 0, err
		}
		rms = append(rms, v)
	}
	m, err := metrics.Mean(rms)
	return 100 * m, err
}

// ServiceErrors reduces the cycle log to each task's worst-case absolute
// service error (see metrics.ServiceError): the largest amount, in CPU
// time, by which a task's cumulative allocation ever deviated from its
// proportional entitlement of what was actually delivered.
func (r RunResult) ServiceErrors() ([]time.Duration, error) {
	if len(r.Cycles) == 0 {
		return nil, fmt.Errorf("exp: no cycles recorded")
	}
	n := len(r.Cycles[0].Record.Tasks)
	fractions := make([]float64, n)
	var total int64
	for _, t := range r.Cycles[0].Record.Tasks {
		total += t.Share
	}
	for i, t := range r.Cycles[0].Record.Tasks {
		fractions[i] = float64(t.Share) / float64(total)
	}
	cum := make([][]float64, 0, len(r.Cycles))
	acc := make([]float64, n)
	for _, c := range r.Cycles {
		if len(c.Record.Tasks) != n {
			return nil, fmt.Errorf("exp: task set changed mid-run")
		}
		row := make([]float64, n)
		for i, t := range c.Record.Tasks {
			acc[i] += float64(t.Consumed)
			row[i] = acc[i]
		}
		cum = append(cum, row)
	}
	errs, err := metrics.ServiceError(cum, fractions)
	if err != nil {
		return nil, err
	}
	out := make([]time.Duration, n)
	for i, e := range errs {
		out[i] = time.Duration(e)
	}
	return out, nil
}

// Run executes one synthetic-workload experiment on a uniprocessor.
func Run(spec RunSpec) (RunResult, error) {
	return run(sim.NewKernel(), spec, nil)
}

// run is the one experiment loop: it drives one ALPS instance over k, a
// machine the caller built, until spec's cycle target or its duration
// bound. Task i covers members[i] stopped processes (one when members is
// nil), each running spec.Behaviors[i] if set, else a spinner. The
// warm-up measured in WarmupTime counts cycles of S·Q/M, since cycles
// complete about M times faster on M processors.
func run(k *sim.Kernel, spec RunSpec, members []int) (RunResult, error) {
	if spec.Cycles <= 0 {
		return RunResult{}, fmt.Errorf("exp: Cycles must be positive")
	}
	if spec.WarmupTime > 0 {
		w := int(spec.WarmupTime/(cycleLength(spec)/time.Duration(k.NCPU()))) + 1
		if w > spec.Warmup {
			spec.Warmup = w
		}
	}
	if spec.MaxDuration <= 0 {
		spec.MaxDuration = time.Duration(spec.Cycles+spec.Warmup+10) * 4 * cycleLength(spec)
	}

	var pids []sim.PID
	tasks := make([]sim.AlpsTask, len(spec.Shares))
	for i, s := range spec.Shares {
		b := sim.Spin()
		if i < len(spec.Behaviors) && spec.Behaviors[i] != nil {
			b = spec.Behaviors[i]
		}
		n := 1
		if members != nil {
			n = members[i]
		}
		tasks[i] = sim.AlpsTask{ID: core.TaskID(i), Share: s}
		for j := 0; j < n; j++ {
			pid := k.SpawnStopped(fmt.Sprintf("w%d", i), 0, b)
			tasks[i].Pids = append(tasks[i].Pids, pid)
			pids = append(pids, pid)
		}
	}

	var res RunResult
	res.Spec = spec
	target := spec.Warmup + spec.Cycles
	seen := 0
	cfg := sim.AlpsConfig{
		Quantum:             spec.Quantum,
		Cost:                spec.Cost,
		DisableLazySampling: spec.DisableLazySampling,
		StartOffset:         spec.Offset,
		OnCycle: func(rec core.CycleRecord) {
			seen++
			if seen > spec.Warmup {
				res.Cycles = append(res.Cycles, CyclePoint{Wall: k.Now(), Record: rec})
			}
			if seen >= target {
				k.Stop()
			}
		},
	}
	a, err := sim.StartALPS(k, cfg, tasks)
	if err != nil {
		return RunResult{}, err
	}
	k.Run(spec.MaxDuration)

	res.Wall = k.Now()
	res.AlpsCPU = a.CPU()
	for _, pid := range pids {
		if info, ok := k.Info(pid); ok {
			res.WorkloadCPU += info.CPU
		}
	}
	_, res.Measurements, res.Signals, res.MissedFirings = a.Stats()
	return res, nil
}

func cycleLength(spec RunSpec) time.Duration {
	var s int64
	for _, v := range spec.Shares {
		s += v
	}
	if s <= 0 {
		s = 1
	}
	return time.Duration(s) * spec.Quantum
}

// Trials runs the spec Trials times with decorrelated timer offsets and
// returns the per-trial results. The paper averages 3 tests per point.
func Trials(spec RunSpec, trials int) ([]RunResult, error) {
	out := make([]RunResult, 0, trials)
	for t := 0; t < trials; t++ {
		s := spec
		// Prime-ish millisecond offsets decorrelate the ALPS timer
		// from the kernel's 10 ms tick grid differently per trial.
		s.Offset = spec.Offset + time.Duration(t)*1700*time.Microsecond
		r, err := Run(s)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
