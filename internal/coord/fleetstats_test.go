package coord

import (
	"math"
	"testing"
)

// planned runs Plan over one shard hosting principals 1 and 2 and
// returns its result with Changed set by the caller, so a test drives
// the fleet estimators with Plan's own RMS, targets and window while
// choosing which rounds count as disturbances.
func planned(weights map[int64]int64, consumed map[int64]float64, changed bool) PlanResult {
	res := Plan(PlannerConfig{}, weights, []ShardLoad{{
		Name: "s", Shares: map[int64]int64{1: 100, 2: 100}, Consumed: consumed,
	}})
	res.Changed = changed
	return res
}

// TestFleetWindowedRMS: the windowed RMS sums the last rmsWindow
// rounds' consumption, so a perfect split reads ~0, a window half
// perfect and half inverted reads between the two, and once every round
// in the window is inverted it equals the per-round RMS.
func TestFleetWindowedRMS(t *testing.T) {
	f := newFleetStats()
	w := map[int64]int64{1: 3, 2: 1}
	for i := 0; i < rmsWindow; i++ {
		f.round(planned(w, map[int64]float64{1: 0.3, 2: 0.1}, false))
	}
	if f.windowRMS > 1e-9 {
		t.Fatalf("perfect split should give ~0 windowed RMS, got %g", f.windowRMS)
	}
	inverted := planned(w, map[int64]float64{1: 0.1, 2: 0.3}, true)
	perRound := inverted.GlobalRMS
	for i := 0; i < rmsWindow/2; i++ {
		f.round(inverted)
	}
	if f.windowRMS <= 1e-9 || f.windowRMS >= perRound {
		t.Fatalf("half-inverted window RMS %g, want strictly between 0 and the per-round %g", f.windowRMS, perRound)
	}
	for i := 0; i < rmsWindow/2; i++ {
		f.round(inverted)
	}
	if perRound < 0.3 || math.Abs(f.windowRMS-perRound) > 1e-12 {
		t.Fatalf("fully inverted window RMS %g, want the per-round %g (>= 0.3)", f.windowRMS, perRound)
	}
}

// TestFleetConvergence: rounds that move shares are a disturbance;
// stableStreak unchanged rounds after it re-converge the fleet and
// record how many rounds the disturbance took.
func TestFleetConvergence(t *testing.T) {
	f := newFleetStats()
	if !f.converged {
		t.Fatal("fresh stats should be converged")
	}
	for i := 0; i < 3; i++ {
		f.round(PlanResult{GlobalRMS: -1, Changed: true})
	}
	if f.converged {
		t.Fatal("should not be converged mid-disturbance")
	}
	for i := 0; i < stableStreak; i++ {
		f.round(PlanResult{GlobalRMS: -1})
	}
	if !f.converged || f.convRounds != 3+stableStreak {
		t.Fatalf("converged=%v after %d rounds, want true after %d", f.converged, f.convRounds, 3+stableStreak)
	}
}

// TestFleetRoundEstimators: on a period-2 beat the per-round RMS swings
// between 0 and 0.5 while the EWMA holds steady, and the beat ratio
// reports the swing. No round moved shares, so the fleet stays
// converged.
func TestFleetRoundEstimators(t *testing.T) {
	f := newFleetStats()
	w := map[int64]int64{1: 1, 2: 1}
	var raw, smooth []float64
	for i := 0; i < 60; i++ {
		c := map[int64]float64{1: 0.5, 2: 0.5} // perfect: RMS 0
		if i%2 == 1 {
			c = map[int64]float64{1: 0.75, 2: 0.25} // skewed: RMS 0.5
		}
		res := planned(w, c, false)
		f.round(res)
		if i >= 40 {
			raw = append(raw, res.GlobalRMS)
			smooth = append(smooth, f.ewma.Value())
		}
	}
	swing := func(xs []float64) float64 {
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = min(lo, x), max(hi, x)
		}
		return hi - lo
	}
	if swing(raw) < 0.4 {
		t.Fatalf("per-round RMS shows no beat: swing %v", swing(raw))
	}
	if swing(smooth) > swing(raw)/5 {
		t.Errorf("EWMA swing %v not >=5x below per-round swing %v", swing(smooth), swing(raw))
	}
	if br := f.beatRatio(); br < 1 {
		t.Errorf("beat ratio %v implausibly small for a 0<->0.5 square wave", br)
	}
	if !f.converged {
		t.Error("fleet not converged although no round moved shares")
	}
}

// TestFleetIdleRoundNoSignal: a round in which no target consumed
// anything carries no share-error signal, so it moves no estimator —
// the windowed RMS, the EWMA and the beat ring all hold. Folding the
// idle round in as 0 would pull the EWMA from 0.50 to 0.45 and the beat
// ratio from 0 to 1.03.
func TestFleetIdleRoundNoSignal(t *testing.T) {
	f := newFleetStats()
	w := map[int64]int64{1: 1, 2: 1}
	for i := 0; i < 31; i++ {
		f.round(planned(w, map[int64]float64{1: 0.75, 2: 0.25}, false))
	}
	snap := func() [3]float64 { return [3]float64{f.windowRMS, f.ewma.Value(), f.beatRatio()} }
	before := snap()
	if math.Abs(before[1]-0.5) > 1e-12 || before[2] != 0 {
		t.Fatalf("setup: EWMA %v, beat ratio %v; want 0.5 and 0", before[1], before[2])
	}
	idle := planned(w, map[int64]float64{1: 0, 2: 0}, false)
	if idle.GlobalRMS >= 0 {
		t.Fatalf("idle round carried a signal: Plan RMS %v", idle.GlobalRMS)
	}
	f.round(idle)
	if after := snap(); after != before {
		t.Errorf("idle round moved the estimators: (windowed, ewma, beat) %v -> %v", before, after)
	}
	// Idle targets while principal 9, which no shard hosts, consumed: 9
	// is not a target and counts for nothing.
	f.round(planned(w, map[int64]float64{9: 1}, false))
	if after := snap(); after != before {
		t.Errorf("outsider-only round moved the estimators: %v -> %v", before, after)
	}
}
