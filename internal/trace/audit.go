package trace

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"alps/internal/core"
	"alps/internal/metrics"
	"alps/internal/obs"
)

// AuditorConfig parameterizes an Auditor. The zero value is usable.
type AuditorConfig struct {
	// Window is the sliding-window length in allocation cycles
	// (default 32).
	Window int
	// DriftThreshold is the windowed RMS share error above which the
	// auditor declares drift and fires OnDrift (default 0.10: shares
	// delivered 10% off target, twice the paper's worst Table 2 row).
	DriftThreshold float64
	// OnDrift fires once per excursion when the windowed RMS crosses
	// DriftThreshold (with 20% hysteresis on the way back). It runs on
	// the control loop; wire it to Recorder.Trigger.
	OnDrift func(rms float64)
}

// A cycle counts toward convergence when its own RMS share error is
// below convergeThreshold (the §3.1 "within 5% of ideal" criterion);
// convergeStreak consecutive such cycles declare convergence.
const (
	convergeThreshold = 0.05
	convergeStreak    = 3
)

// beatWindow bounds the ring of recent windowed RMS values behind the
// alps_audit_window_beat_ratio gauge.
const beatWindow = 32

// cycleSample is one completed cycle's contribution to the window.
type cycleSample struct {
	ids      []int64
	shares   []float64
	consumed []float64 // seconds
	// §3.2 sampling accounting accumulated over the cycle's quanta.
	potential, measured int64
}

// Auditor is the online accuracy auditor: a sliding-window evaluator of
// the paper's own evaluation metrics, computed continuously instead of
// post-hoc. It consumes both feeds the scheduler already produces —
// the per-cycle CycleRecord (consumption per principal) and the obs
// event stream (eligibility and measurement activity) — and exports:
//
//   - per-principal relative share error over the window (§3.1);
//   - windowed RMS share error vs the target distribution (Table 2),
//     which doubles as the flight recorder's drift trigger, and its
//     EWMA (metrics.EWMA), which averages away the beat a window
//     strikes against a duty cycle;
//   - convergence time, in cycles, after a disturbance (start or
//     Reconfigure; a restart builds a fresh auditor);
//   - the §3.2 sampling-reduction ratio: the fraction of potential
//     per-quantum measurements that lazy sampling avoided.
type Auditor struct {
	cfg AuditorConfig

	mu     sync.Mutex
	window *obs.Ring[cycleSample]

	// Eligibility bookkeeping between cycles (fed by Observe).
	eligible      map[int64]bool
	eligibleCount int
	potential     int64 // current cycle: eligible tasks × quanta
	measured      int64 // current cycle: measurements actually taken

	// Control-loop work accounting (§4.2): per-quantum time spent in the
	// sample/charge/decide/signal phases, reconstructed from the
	// substrate-stamped phase markers. Sleep is excluded — it is the
	// quantum's idle remainder, not work. These gauges are how the scale
	// benchmark proves the indexed loop beats the seed loop.
	phaseBegan map[int]time.Duration // open phase → begin stamp
	curWork    time.Duration         // current quantum's accumulated phase time
	lastWork   time.Duration         // previous quantum's total
	totalWork  time.Duration
	loopTicks  int64
	// workRing holds the most recent completed quanta's work for the
	// median gauge: unlike the mean, the median is immune to the
	// occasional quantum inflated by the OS descheduling the scheduler
	// itself mid-phase.
	workRing *obs.Ring[time.Duration]

	// Windowed results, recomputed at each cycle completion. An all-idle
	// window carries no share-error signal and leaves them as they were.
	rms      float64
	perTask  map[int64]float64
	winPot   int64
	winMeas  int64
	drifting bool

	// EWMA-over-windows estimator and the beat-ratio diagnostic ring of
	// recent windowed RMS values.
	ewma     metrics.EWMA
	beatRing *obs.Ring[float64]

	// Convergence tracking.
	cycles          int64
	disturbedAt     int64
	streak          int
	converged       bool
	lastConvergence float64 // cycles; -1 until first measured
	disturbances    int64

	reg        *obs.Registry
	registered map[int64]bool
}

// NewAuditor creates an auditor.
func NewAuditor(cfg AuditorConfig) *Auditor {
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.DriftThreshold <= 0 {
		cfg.DriftThreshold = 0.10
	}
	return &Auditor{
		cfg:             cfg,
		window:          obs.NewRing[cycleSample](cfg.Window),
		workRing:        obs.NewRing[time.Duration](loopWorkRing),
		beatRing:        obs.NewRing[float64](beatWindow),
		eligible:        make(map[int64]bool),
		perTask:         make(map[int64]float64),
		phaseBegan:      make(map[int]time.Duration),
		lastConvergence: -1,
		registered:      make(map[int64]bool),
	}
}

// Observe implements obs.Observer, tracking the eligible set so the
// §3.2 ratio can compare measurements taken against the measurements a
// non-lazy controller would have taken (one per eligible task per
// quantum).
func (a *Auditor) Observe(e obs.Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch e.Kind {
	case obs.KindQuantumStart:
		a.potential += int64(a.eligibleCount)
		// The previous quantum's work bucket is complete: the signal
		// phase (which follows QuantumEnd) has been stamped by now.
		if a.loopTicks > 0 {
			a.workRing.Push(a.curWork)
		}
		a.loopTicks++
		a.lastWork = a.curWork
		a.curWork = 0
	case obs.KindPhaseBegin:
		if obs.Phase(e.N) != obs.PhaseSleep {
			a.phaseBegan[e.N] = e.At
		}
	case obs.KindPhaseEnd:
		if obs.Phase(e.N) == obs.PhaseSleep {
			break
		}
		if begin, ok := a.phaseBegan[e.N]; ok {
			delete(a.phaseBegan, e.N)
			if d := e.At - begin; d > 0 {
				a.curWork += d
				a.totalWork += d
			}
		}
	case obs.KindMeasure:
		a.measured++
	case obs.KindTransition:
		if e.Eligible && !a.eligible[e.Task] {
			a.eligible[e.Task] = true
			a.eligibleCount++
		} else if !e.Eligible && a.eligible[e.Task] {
			delete(a.eligible, e.Task)
			a.eligibleCount--
		}
	case obs.KindDead:
		if a.eligible[e.Task] {
			delete(a.eligible, e.Task)
			a.eligibleCount--
		}
	case obs.KindReconfig:
		a.markDisturbanceLocked()
	}
}

// OnCycle feeds one completed allocation cycle. Chain it into the
// substrate's OnCycle callback.
func (a *Auditor) OnCycle(rec core.CycleRecord) {
	s := cycleSample{
		ids:      make([]int64, len(rec.Tasks)),
		shares:   make([]float64, len(rec.Tasks)),
		consumed: make([]float64, len(rec.Tasks)),
	}
	for i, t := range rec.Tasks {
		s.ids[i] = int64(t.ID)
		s.shares[i] = float64(t.Share)
		s.consumed[i] = t.Consumed.Seconds()
	}

	a.mu.Lock()
	s.potential, s.measured = a.potential, a.measured
	a.potential, a.measured = 0, 0

	if n := a.window.Len(); n == a.window.Cap() {
		old := a.window.Newest(n - 1)
		a.winPot -= old.potential
		a.winMeas -= old.measured
	}
	a.window.Push(s)
	a.winPot += s.potential
	a.winMeas += s.measured

	a.cycles++
	a.convergeLocked(s)

	// Everything that reads the windowed RMS moves only on a window with
	// signal: the beat ring behind the wobble gauge, the EWMA that
	// smooths it, and the drift trigger.
	var fire func(rms float64)
	var rms float64
	if a.recomputeWindowLocked(s) {
		a.beatRing.Push(a.rms)
		a.ewma.Add(a.rms)
		if a.window.Len() == a.window.Cap() && a.rms > a.cfg.DriftThreshold && !a.drifting {
			a.drifting = true
			fire, rms = a.cfg.OnDrift, a.rms
		} else if a.drifting && a.rms < 0.8*a.cfg.DriftThreshold {
			a.drifting = false
		}
	}
	a.mu.Unlock()

	if fire != nil {
		fire(rms)
	}
}

// convergeLocked advances the convergence state machine. It judges
// each cycle on its own: did THIS cycle deliver shares within the
// threshold? An idle cycle carries no signal and leaves the streak
// where it was.
func (a *Auditor) convergeLocked(newest cycleSample) {
	rms, ok := metrics.ShareError(nil, newest.consumed, newest.shares)
	if !ok {
		return
	}
	if rms < convergeThreshold {
		a.streak++
		if !a.converged && a.streak >= convergeStreak {
			a.converged = true
			// Convergence time: cycles from the disturbance to the
			// start of the qualifying streak.
			c := a.cycles - a.disturbedAt - convergeStreak
			if c < 0 {
				c = 0
			}
			a.lastConvergence = float64(c)
		}
	} else {
		a.streak = 0
	}
}

// recomputeWindowLocked refreshes the windowed share errors and
// reports whether the window carried a signal. The newest cycle's tasks
// are the target set: consumption aggregates over the window for them
// alone (membership changes mid-window drop out with their cycles).
func (a *Auditor) recomputeWindowLocked(newest cycleSample) bool {
	current := make(map[int64]int, len(newest.ids))
	for i, id := range newest.ids {
		current[id] = i
	}
	consumed := make([]float64, len(newest.ids))
	for i := 0; i < a.window.Len(); i++ {
		s := a.window.Newest(i)
		for j, id := range s.ids {
			if k, ok := current[id]; ok {
				consumed[k] += s.consumed[j]
			}
		}
	}
	for id := range a.perTask {
		if _, ok := current[id]; !ok {
			delete(a.perTask, id)
		}
	}
	errs := make([]float64, len(newest.ids))
	rms, ok := metrics.ShareError(errs, consumed, newest.shares)
	if !ok {
		return false
	}
	for i, e := range errs {
		a.perTask[newest.ids[i]] = math.Abs(e)
		a.registerTaskLocked(newest.ids[i])
	}
	a.rms = rms
	return true
}

// registerTaskLocked exports a per-task share-error gauge the first time
// a task appears (idempotent thereafter).
func (a *Auditor) registerTaskLocked(id int64) {
	if a.reg == nil || a.registered[id] {
		return
	}
	a.registered[id] = true
	a.reg.GaugeFunc(fmt.Sprintf(`alps_audit_share_error{task="%d"}`, id),
		"Per-principal relative share error over the audit window (§3.1).",
		func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return a.perTask[id]
		})
}

func (a *Auditor) markDisturbanceLocked() {
	a.disturbedAt = a.cycles
	a.streak = 0
	a.converged = false
	a.disturbances++
}

// Reconfigure adjusts the audit window length (cycles) and the drift
// threshold at runtime — the /admin/config hooks. A non-positive
// argument leaves that knob unchanged. Resizing keeps the newest
// min(n, window) samples and recomputes the windowed results in place,
// so the exported gauges never mix window lengths.
func (a *Auditor) Reconfigure(window int, drift float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if drift > 0 {
		a.cfg.DriftThreshold = drift
	}
	if window <= 0 || window == a.window.Cap() {
		return
	}
	a.cfg.Window = window
	a.window.Resize(window)
	a.winPot, a.winMeas = 0, 0
	for i := 0; i < a.window.Len(); i++ {
		s := a.window.Newest(i)
		a.winPot += s.potential
		a.winMeas += s.measured
	}
	if a.window.Len() > 0 {
		a.recomputeWindowLocked(a.window.Newest(0))
	}
}

// Thresholds returns the current audit window length (cycles) and
// drift threshold — the values /admin/config reports.
func (a *Auditor) Thresholds() (window int, drift float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.window.Cap(), a.cfg.DriftThreshold
}

// RMSShareError returns the windowed RMS share error.
func (a *Auditor) RMSShareError() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rms
}

// RMSShareErrorEWMA returns the EWMA-over-windows share-error
// estimator: each windowed RMS with signal folds in with weight
// metrics.EWMAAlpha.
func (a *Auditor) RMSShareErrorEWMA() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ewma.Value()
}

// WindowBeatRatio returns (max-min)/mean of the recent windowed RMS
// values — near 0 when the estimator is steady, rising toward 1 when
// the window beats against a duty cycle.
func (a *Auditor) WindowBeatRatio() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return metrics.BeatRatio(a.beatRing.Snapshot())
}

// ConvergenceCycles returns the last measured convergence time in
// cycles, or -1 if the scheduler has not converged since the last
// disturbance was measured.
func (a *Auditor) ConvergenceCycles() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.converged {
		return -1
	}
	return a.lastConvergence
}

// SamplingReductionRatio returns the fraction of potential measurements
// (one per eligible task per quantum) that lazy sampling skipped over
// the window — the §3.2 number, 0 when lazy sampling is disabled.
func (a *Auditor) SamplingReductionRatio() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ratioLocked()
}

func (a *Auditor) ratioLocked() float64 {
	if a.winPot <= 0 {
		return 0
	}
	r := 1 - float64(a.winMeas)/float64(a.winPot)
	if r < 0 {
		return 0
	}
	return r
}

// MeanLoopWork returns the average control-loop work per quantum —
// the summed durations of the sample/charge/decide/signal phases
// (sleep excluded), reconstructed from stamped phase events — or 0
// before the first quantum. This is the §4.2 overhead figure the scale
// benchmark compares across loop implementations.
func (a *Auditor) MeanLoopWork() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.loopTicks == 0 {
		return 0
	}
	return a.totalWork / time.Duration(a.loopTicks)
}

// LastLoopWork returns the most recent completed quantum's control-loop
// work (0 until the second quantum begins).
func (a *Auditor) LastLoopWork() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastWork
}

// loopWorkRing bounds the median window (in quanta).
const loopWorkRing = 4096

// MedianLoopWork returns the median per-quantum control-loop work over
// the last loopWorkRing completed quanta. The scale benchmark's ≥5×
// indexed-vs-seed gate uses this rather than the mean: a quantum during
// which the host descheduled the scheduler itself carries tens of
// milliseconds of wall time inside the phase brackets, and one such
// quantum would dominate a mean.
func (a *Auditor) MedianLoopWork() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.workRing.Len() == 0 {
		return 0
	}
	sorted := a.workRing.Snapshot()
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// LoopTicks returns the number of quanta observed.
func (a *Auditor) LoopTicks() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.loopTicks
}

// Drifting reports whether the windowed RMS error currently exceeds the
// drift threshold.
func (a *Auditor) Drifting() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.drifting
}

// Register exports the auditor on a metrics registry. Per-task gauges
// appear as tasks appear.
func (a *Auditor) Register(reg *obs.Registry) {
	a.mu.Lock()
	a.reg = reg
	a.mu.Unlock()
	reg.GaugeFunc("alps_audit_rms_share_error",
		"Windowed RMS relative share error vs the target distribution (Table 2).",
		a.RMSShareError)
	reg.GaugeFunc("alps_audit_convergence_cycles",
		"Cycles from the last disturbance (start/Reconfigure/restart) to convergence; -1 while unconverged.",
		a.ConvergenceCycles)
	reg.GaugeFunc("alps_audit_sampling_reduction_ratio",
		"Fraction of potential per-quantum measurements avoided by §2.3 lazy sampling (§3.2).",
		a.SamplingReductionRatio)
	reg.GaugeFunc("alps_audit_rms_share_error_ewma",
		"EWMA-over-windows RMS share error (alpha 0.1), immune to a window beating against a duty cycle.",
		a.RMSShareErrorEWMA)
	reg.GaugeFunc("alps_audit_window_beat_ratio",
		"(max-min)/mean of recent windowed RMS values; near 0 when steady, near 1 when the window beats against a duty cycle.",
		a.WindowBeatRatio)
	reg.GaugeFunc("alps_audit_window_cycles",
		"Cycles currently in the audit window.",
		func() float64 { a.mu.Lock(); defer a.mu.Unlock(); return float64(a.window.Len()) })
	reg.GaugeFunc("alps_audit_drifting",
		"1 while the windowed RMS share error exceeds the drift threshold.",
		func() float64 {
			if a.Drifting() {
				return 1
			}
			return 0
		})
	reg.CounterFunc("alps_audit_disturbances_total",
		"Convergence-clock resets observed (start counts as the first).",
		func() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.disturbances })
	reg.GaugeFunc("alps_audit_loop_work_avg_seconds",
		"Average per-quantum control-loop work (sample+charge+decide+signal, sleep excluded) from stamped phase events (§4.2).",
		func() float64 { return a.MeanLoopWork().Seconds() })
	reg.GaugeFunc("alps_audit_loop_work_p50_seconds",
		"Median per-quantum control-loop work over the recent window (robust to host descheduling).",
		func() float64 { return a.MedianLoopWork().Seconds() })
	reg.GaugeFunc("alps_audit_loop_work_last_seconds",
		"Control-loop work of the most recent completed quantum.",
		func() float64 { return a.LastLoopWork().Seconds() })
	reg.GaugeFunc("alps_audit_loop_ticks",
		"Quanta observed by the auditor.",
		func() float64 { return float64(a.LoopTicks()) })
}

var _ obs.Observer = (*Auditor)(nil)
var _ obs.Observer = (*Recorder)(nil)
