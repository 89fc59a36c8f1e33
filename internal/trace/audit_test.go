package trace

import (
	"math"
	"strings"
	"testing"
	"time"

	"alps/internal/core"
	"alps/internal/metrics"
	"alps/internal/obs"
	"alps/internal/tshist"
)

// cycleRec builds a two-task CycleRecord with the given consumption.
func cycleRec(index int, c1, c2 time.Duration, s1, s2 int64) core.CycleRecord {
	return core.CycleRecord{
		Index: index,
		Tasks: []core.CycleTask{
			{ID: 1, Share: s1, Consumed: c1},
			{ID: 2, Share: s2, Consumed: c2},
		},
	}
}

func TestAuditorShareError(t *testing.T) {
	a := NewAuditor(AuditorConfig{Window: 4})
	// Shares 1:3; perfect delivery is 10ms:30ms.
	for i := 0; i < 4; i++ {
		a.OnCycle(cycleRec(i, 10*time.Millisecond, 30*time.Millisecond, 1, 3))
	}
	if rms := a.RMSShareError(); rms > 1e-9 {
		t.Errorf("RMS on perfect delivery = %v, want 0", rms)
	}
	// Skew every cycle to 20ms:20ms: actual fractions 0.5/0.5 vs ideal
	// 0.25/0.75 — relative errors 1.0 and 1/3.
	for i := 4; i < 8; i++ {
		a.OnCycle(cycleRec(i, 20*time.Millisecond, 20*time.Millisecond, 1, 3))
	}
	want := math.Sqrt((1.0*1.0 + (1.0/3)*(1.0/3)) / 2)
	if rms := a.RMSShareError(); math.Abs(rms-want) > 1e-9 {
		t.Errorf("RMS = %v, want %v", rms, want)
	}
}

func TestAuditorDriftTrigger(t *testing.T) {
	var fired []float64
	a := NewAuditor(AuditorConfig{
		Window: 2, DriftThreshold: 0.1,
		OnDrift: func(rms float64) { fired = append(fired, rms) },
	})
	good := func(i int) core.CycleRecord { return cycleRec(i, 10*time.Millisecond, 10*time.Millisecond, 1, 1) }
	bad := func(i int) core.CycleRecord { return cycleRec(i, 30*time.Millisecond, 10*time.Millisecond, 1, 1) }

	a.OnCycle(good(0))
	if len(fired) != 0 {
		t.Fatal("drift fired before the window filled")
	}
	a.OnCycle(good(1))
	a.OnCycle(bad(2))
	a.OnCycle(bad(3))
	if len(fired) != 1 {
		t.Fatalf("drift fired %d times after sustained skew, want 1", len(fired))
	}
	if !a.Drifting() {
		t.Error("Drifting() false during excursion")
	}
	// Still skewed: no re-fire while inside the excursion.
	a.OnCycle(bad(4))
	if len(fired) != 1 {
		t.Errorf("drift re-fired inside excursion: %v", fired)
	}
	// Recover (hysteresis), then a second excursion fires again.
	for i := 5; i < 9; i++ {
		a.OnCycle(good(i))
	}
	if a.Drifting() {
		t.Error("Drifting() true after recovery")
	}
	a.OnCycle(bad(9))
	a.OnCycle(bad(10))
	if len(fired) != 2 {
		t.Errorf("drift fired %d times across two excursions, want 2", len(fired))
	}
}

func TestAuditorConvergence(t *testing.T) {
	a := NewAuditor(AuditorConfig{Window: 8})
	if got := a.ConvergenceCycles(); got != -1 {
		t.Errorf("ConvergenceCycles before any data = %v, want -1", got)
	}
	good := func(i int) core.CycleRecord { return cycleRec(i, 10*time.Millisecond, 20*time.Millisecond, 1, 2) }
	bad := func(i int) core.CycleRecord { return cycleRec(i, 25*time.Millisecond, 5*time.Millisecond, 1, 2) }

	// Converges immediately: three good cycles, zero cycles of settling.
	a.OnCycle(good(0))
	a.OnCycle(good(1))
	a.OnCycle(good(2))
	if got := a.ConvergenceCycles(); got != 0 {
		t.Errorf("ConvergenceCycles = %v, want 0 (converged from the first cycle)", got)
	}

	// A reconfig event resets the clock via the event stream.
	a.Observe(obs.Event{Kind: obs.KindReconfig, Tick: 10, Task: -1})
	if got := a.ConvergenceCycles(); got != -1 {
		t.Errorf("ConvergenceCycles after disturbance = %v, want -1", got)
	}
	// One bad settling cycle, then three good ones: convergence time 1.
	a.OnCycle(bad(3))
	a.OnCycle(good(4))
	a.OnCycle(good(5))
	a.OnCycle(good(6))
	if got := a.ConvergenceCycles(); got != 1 {
		t.Errorf("ConvergenceCycles = %v, want 1 (one settling cycle)", got)
	}
}

// TestAuditorSamplingRatio replays the §3.2 accounting: potential
// measurements are one per eligible task per quantum; the ratio is the
// fraction lazy sampling skipped.
func TestAuditorSamplingRatio(t *testing.T) {
	a := NewAuditor(AuditorConfig{Window: 4})
	// Two tasks become eligible.
	a.Observe(obs.Event{Kind: obs.KindTransition, Task: 1, Eligible: true})
	a.Observe(obs.Event{Kind: obs.KindTransition, Task: 2, Eligible: true})
	// Four quanta with both eligible: potential 8. Two measurements.
	for i := 0; i < 4; i++ {
		a.Observe(obs.Event{Kind: obs.KindQuantumStart, Tick: int64(i + 1)})
	}
	a.Observe(obs.Event{Kind: obs.KindMeasure, Task: 1})
	a.Observe(obs.Event{Kind: obs.KindMeasure, Task: 2})
	a.OnCycle(cycleRec(0, 10*time.Millisecond, 10*time.Millisecond, 1, 1))
	if got, want := a.SamplingReductionRatio(), 0.75; math.Abs(got-want) > 1e-9 {
		t.Errorf("SamplingReductionRatio = %v, want %v", got, want)
	}

	// Full sampling (lazy disabled): every eligible task measured every
	// quantum — ratio 0.
	b := NewAuditor(AuditorConfig{Window: 4})
	b.Observe(obs.Event{Kind: obs.KindTransition, Task: 1, Eligible: true})
	for i := 0; i < 4; i++ {
		b.Observe(obs.Event{Kind: obs.KindQuantumStart, Tick: int64(i + 1)})
		b.Observe(obs.Event{Kind: obs.KindMeasure, Task: 1})
	}
	b.OnCycle(core.CycleRecord{Tasks: []core.CycleTask{{ID: 1, Share: 1, Consumed: time.Millisecond}}})
	if got := b.SamplingReductionRatio(); got != 0 {
		t.Errorf("full-sampling ratio = %v, want 0", got)
	}
}

func TestAuditorRegister(t *testing.T) {
	reg := obs.NewRegistry()
	a := NewAuditor(AuditorConfig{Window: 2})
	a.Register(reg)
	for i := 0; i < convergeStreak; i++ {
		a.OnCycle(cycleRec(i, 10*time.Millisecond, 20*time.Millisecond, 1, 2))
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"alps_audit_rms_share_error",
		"alps_audit_convergence_cycles 0",
		"alps_audit_sampling_reduction_ratio 0",
		"alps_audit_window_cycles 2",
		"alps_audit_drifting 0",
		"alps_audit_disturbances_total 0",
		`alps_audit_share_error{task="1"}`,
		`alps_audit_share_error{task="2"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestAuditorLoopWork reconstructs the §4.2 per-quantum control-loop
// work from stamped phase events: phase durations sum, sleep is
// excluded, and the average divides by observed quanta.
func TestAuditorLoopWork(t *testing.T) {
	a := NewAuditor(AuditorConfig{})
	if got := a.MeanLoopWork(); got != 0 {
		t.Errorf("MeanLoopWork before any quantum = %v, want 0", got)
	}
	phase := func(p obs.Phase, begin, end time.Duration) {
		a.Observe(obs.Event{Kind: obs.KindPhaseBegin, Task: -1, N: int(p), At: begin})
		a.Observe(obs.Event{Kind: obs.KindPhaseEnd, Task: -1, N: int(p), At: end})
	}
	// Quantum 1: 1ms sample + 2ms decide + 3ms signal = 6ms work; the
	// 94ms sleep must not count.
	a.Observe(obs.Event{Kind: obs.KindQuantumStart, Tick: 1})
	phase(obs.PhaseSample, 0, time.Millisecond)
	phase(obs.PhaseDecide, time.Millisecond, 3*time.Millisecond)
	phase(obs.PhaseSignal, 3*time.Millisecond, 6*time.Millisecond)
	phase(obs.PhaseSleep, 6*time.Millisecond, 100*time.Millisecond)
	// Quantum 2: 2ms of work.
	a.Observe(obs.Event{Kind: obs.KindQuantumStart, Tick: 2})
	phase(obs.PhaseSample, 100*time.Millisecond, 102*time.Millisecond)
	phase(obs.PhaseSleep, 102*time.Millisecond, 200*time.Millisecond)
	a.Observe(obs.Event{Kind: obs.KindQuantumStart, Tick: 3})

	if got, want := a.MeanLoopWork(), (6*time.Millisecond+2*time.Millisecond)/3; got != want {
		t.Errorf("MeanLoopWork = %v, want %v", got, want)
	}
	if got, want := a.LastLoopWork(), 2*time.Millisecond; got != want {
		t.Errorf("LastLoopWork = %v, want %v", got, want)
	}
	if got := a.LoopTicks(); got != 3 {
		t.Errorf("LoopTicks = %v, want 3", got)
	}
	// Ring holds the two completed quanta {6ms, 2ms}; median of an even
	// window takes the upper middle.
	if got, want := a.MedianLoopWork(), 6*time.Millisecond; got != want {
		t.Errorf("MedianLoopWork = %v, want %v", got, want)
	}

	reg := obs.NewRegistry()
	a.Register(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"alps_audit_loop_work_avg_seconds",
		"alps_audit_loop_work_p50_seconds 0.006",
		"alps_audit_loop_work_last_seconds 0.002",
		"alps_audit_loop_ticks 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestAuditorDeadTaskDropsFromWindow: a task that disappears stops
// contributing to the windowed error once it leaves the newest cycle.
func TestAuditorDeadTaskDropsFromWindow(t *testing.T) {
	a := NewAuditor(AuditorConfig{Window: 2})
	a.OnCycle(cycleRec(0, 10*time.Millisecond, 20*time.Millisecond, 1, 2))
	a.Observe(obs.Event{Kind: obs.KindDead, Task: 2})
	a.OnCycle(core.CycleRecord{
		Index: 1,
		Tasks: []core.CycleTask{{ID: 1, Share: 1, Consumed: 10 * time.Millisecond}},
	})
	if rms := a.RMSShareError(); rms > 1e-9 {
		t.Errorf("RMS with sole surviving task = %v, want 0 (it gets everything it asks)", rms)
	}
}

// feedDutyCycle drives one allocation cycle of the synthetic period-4
// duty pattern into an auditor: task 1 bursts its whole 2s budget every
// fourth cycle, task 2 spreads 2s evenly across the other three. Over
// any aligned 4-cycle span the 1:1 shares are delivered exactly; over a
// misaligned fixed window the measured RMS beats with period 4.
func feedDutyCycle(a *Auditor, k int) {
	var c1, c2 time.Duration
	if k%4 == 0 {
		c1 = 2 * time.Second
	} else {
		c2 = 2 * time.Second / 3
	}
	a.OnCycle(cycleRec(k, c1, c2, 1, 1))
}

// TestAuditorEWMAKillsAliasing is the unit-level check on the one
// smoother, read back as a /debug/timeline consumer reads it: the
// auditor's gauges are sampled into a tshist store every cycle. The
// period-4 duty pattern makes a raw 5-cycle window's RMS oscillate (the
// Gunther decay-window beat) while the EWMA over the same windows holds
// steady — its beat ratio at least 5x lower — and the auditor's own
// WindowBeatRatio gauge reports the raw beat.
func TestAuditorEWMAKillsAliasing(t *testing.T) {
	const cycles, tail = 200, 100 // the tail is past window fill and the EWMA's settling
	reg := obs.NewRegistry()
	a := NewAuditor(AuditorConfig{Window: 5})
	a.Register(reg)
	hist := tshist.New(tshist.Config{Source: reg})
	epoch := time.Unix(0, 0)
	for k := 0; k < cycles; k++ {
		feedDutyCycle(a, k)
		hist.Sample(epoch.Add(time.Duration(k) * time.Second))
	}
	series := func(name string) []float64 {
		var vals []float64
		for _, p := range hist.SeriesPoints(name, "") {
			vals = append(vals, p.Value)
		}
		if len(vals) < tail {
			t.Fatalf("%s: %d points retained, want at least %d", name, len(vals), tail)
		}
		return vals[len(vals)-tail:]
	}
	rawVals := series("alps_audit_rms_share_error")
	ewmaVals := series("alps_audit_rms_share_error_ewma")
	if lo, hi := minOf(rawVals), maxOf(rawVals); hi-lo < 0.1 {
		t.Fatalf("raw window shows no beat: RMS range [%v, %v]", lo, hi)
	}
	rb, eb := metrics.BeatRatio(rawVals), metrics.BeatRatio(ewmaVals)
	if eb > rb/5 {
		t.Errorf("EWMA beat ratio %v not >=5x below the raw window's %v", eb, rb)
	}
	if got := a.WindowBeatRatio(); math.Abs(got-metrics.BeatRatio(rawVals[len(rawVals)-beatWindow:])) > 1e-12 {
		t.Errorf("WindowBeatRatio = %v, want the raw tail's beat ratio", got)
	}
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

// TestAuditorEWMAEstimator checks the EWMA recursion against a manual
// trace: first windowed RMS seeds it, later ones fold in with alpha.
func TestAuditorEWMAEstimator(t *testing.T) {
	const alpha = metrics.EWMAAlpha
	a := NewAuditor(AuditorConfig{Window: 1})
	want := 0.0
	for k := 0; k < 10; k++ {
		// Alternate perfect and fully skewed cycles; window 1 makes the
		// windowed RMS follow each cycle directly.
		if k%2 == 0 {
			a.OnCycle(cycleRec(k, 10*time.Millisecond, 10*time.Millisecond, 1, 1))
		} else {
			a.OnCycle(cycleRec(k, 20*time.Millisecond, 0, 1, 1))
		}
		rms := a.RMSShareError()
		if k == 0 {
			want = rms
		} else {
			want = alpha*rms + (1-alpha)*want
		}
		if got := a.RMSShareErrorEWMA(); math.Abs(got-want) > 1e-12 {
			t.Fatalf("cycle %d: EWMA = %v, want %v", k, got, want)
		}
	}
	// The smoothed estimate must sit strictly between the alternating
	// extremes the raw gauge bounces across.
	ewma := a.RMSShareErrorEWMA()
	if ewma <= 0.05 || ewma >= 0.95 {
		t.Errorf("EWMA %v not strictly between the alternating extremes", ewma)
	}
}

// TestAuditorReconfigure covers the /admin/config hooks: shrinking the
// window keeps only the newest samples (the RMS recomputes in place),
// growing it refills gradually, and the drift threshold updates.
func TestAuditorReconfigure(t *testing.T) {
	NewAuditor(AuditorConfig{Window: 4}).Reconfigure(2, 0.5) // empty: must not panic

	a := NewAuditor(AuditorConfig{Window: 4})
	reg := obs.NewRegistry()
	a.Register(reg)
	// Two perfect cycles, then two fully skewed ones (shares 1:3 but
	// equal consumption).
	a.OnCycle(cycleRec(0, 10*time.Millisecond, 30*time.Millisecond, 1, 3))
	a.OnCycle(cycleRec(1, 10*time.Millisecond, 30*time.Millisecond, 1, 3))
	a.OnCycle(cycleRec(2, 20*time.Millisecond, 20*time.Millisecond, 1, 3))
	a.OnCycle(cycleRec(3, 20*time.Millisecond, 20*time.Millisecond, 1, 3))
	mixed := a.RMSShareError()

	// Shrink to the newest two (the skewed ones): the RMS must jump to
	// the pure-skew value immediately, without waiting for a cycle.
	a.Reconfigure(2, 0.42)
	skew := math.Sqrt((1.0*1.0 + (1.0/3)*(1.0/3)) / 2)
	if got := a.RMSShareError(); math.Abs(got-skew) > 1e-9 {
		t.Errorf("RMS after shrink = %v, want %v (newest two cycles)", got, skew)
	}
	if mixed >= skew {
		t.Errorf("mixed-window RMS %v should be below pure-skew %v", mixed, skew)
	}
	if w, d := a.Thresholds(); w != 2 || d != 0.42 {
		t.Errorf("Thresholds = (%d, %v), want (2, 0.42)", w, d)
	}

	// Grow back: kept samples survive, new cycles refill toward the new
	// length.
	a.Reconfigure(6, 0)
	if w, d := a.Thresholds(); w != 6 || d != 0.42 {
		t.Errorf("Thresholds after grow = (%d, %v), want (6, 0.42)", w, d)
	}
	a.OnCycle(cycleRec(4, 10*time.Millisecond, 30*time.Millisecond, 1, 3))
	if got := gaugeValue(t, reg, "alps_audit_window_cycles"); got != 3 {
		t.Errorf("window after grow+1 cycle = %v cycles, want 3 (2 kept + 1 new)", got)
	}

	// The lowered threshold drives the drift hysteresis: fill the window
	// with skew and the excursion fires against 0.42.
	var fired []float64
	b := NewAuditor(AuditorConfig{Window: 2, DriftThreshold: 10, // absurdly high: never fires
		OnDrift: func(rms float64) { fired = append(fired, rms) }})
	b.OnCycle(cycleRec(0, 20*time.Millisecond, 20*time.Millisecond, 1, 3))
	b.OnCycle(cycleRec(1, 20*time.Millisecond, 20*time.Millisecond, 1, 3))
	if len(fired) != 0 {
		t.Fatal("drift fired below threshold")
	}
	b.Reconfigure(0, 0.1) // window unchanged, threshold now crossable
	b.OnCycle(cycleRec(2, 20*time.Millisecond, 20*time.Millisecond, 1, 3))
	if len(fired) != 1 {
		t.Errorf("drift fired %d times after threshold drop, want 1", len(fired))
	}
}

// gaugeValue reads one unlabelled sample off a registry.
func gaugeValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name == name && s.Labels == "" {
			return s.Value
		}
	}
	t.Fatalf("no sample %q", name)
	return 0
}

// TestAuditorAliasGaugesRegistered: the estimator gauges appear on the
// registry.
func TestAuditorAliasGaugesRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	a := NewAuditor(AuditorConfig{Window: 2})
	a.Register(reg)
	a.OnCycle(cycleRec(0, 10*time.Millisecond, 20*time.Millisecond, 1, 2))
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"alps_audit_rms_share_error_ewma",
		"alps_audit_window_beat_ratio",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestAuditorIdleCycleNoSignal: an all-idle window carries no
// share-error signal, so one idle cycle moves no estimator — the
// windowed RMS and per-task errors, the EWMA, the beat ring, the drift
// state and the per-cycle convergence streak all hold.
func TestAuditorIdleCycleNoSignal(t *testing.T) {
	a := NewAuditor(AuditorConfig{Window: 1})
	// Alternate skewed and perfect cycles, ending perfect: the RMS is 0,
	// the EWMA sits above it and the streak has started.
	for k := 0; k < 5; k++ {
		if k%2 == 1 {
			a.OnCycle(cycleRec(k, 20*time.Millisecond, 0, 1, 1))
		} else {
			a.OnCycle(cycleRec(k, 10*time.Millisecond, 10*time.Millisecond, 1, 1))
		}
	}
	type state struct {
		rms, ewma, beat float64
		ring            int
		streak          int
		drifting        bool
		task1           float64
	}
	snap := func() state {
		a.mu.Lock()
		defer a.mu.Unlock()
		return state{a.rms, a.ewma.Value(), metrics.BeatRatio(a.beatRing.Snapshot()),
			a.beatRing.Len(), a.streak, a.drifting, a.perTask[1]}
	}
	before := snap()
	if before.ewma == before.rms || before.streak == 0 {
		t.Fatalf("setup: want the EWMA off the raw RMS and a live streak, got %+v", before)
	}
	a.OnCycle(cycleRec(5, 0, 0, 1, 1))
	if after := snap(); after != before {
		t.Errorf("idle cycle moved the estimators:\n before %+v\n after  %+v", before, after)
	}
}
