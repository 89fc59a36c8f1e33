package osproc

import (
	"time"

	"alps/internal/obs"
)

// Overload guard. The paper's §4.2 breakdown analysis gives the
// utilization ceiling U_Q(N) = 100/(N+1): once the control loop's own
// per-quantum work (N /proc reads plus signal deliveries) stops fitting
// comfortably inside the quantum, allocation error explodes (Fig. 9)
// rather than degrading smoothly. The guard watches the measured
// per-invocation work from Step and, on sustained pressure, stretches
// the effective quantum by doubling it — the paper-sanctioned knob:
// Fig. 4 shows accuracy holding through Q = 40 ms — which halves the
// relative overhead at each level. Hysteresis (a consecutive-quantum
// window on both edges, and a recovery threshold set against the
// *next-smaller* quantum) prevents flapping at the boundary.

// OverloadConfig parameterizes the guard. The zero value disables it;
// set Enable and leave MaxQuantum zero for the default cap.
type OverloadConfig struct {
	// Enable turns the guard on.
	Enable bool
	// MaxQuantum caps the stretched quantum. Default 40ms (Fig. 4's
	// last accurate point).
	MaxQuantum time.Duration
}

// The guard's hysteresis: degrade one level after overloadWindow
// consecutive invocations whose work exceeds overloadHigh of the
// effective quantum; recover one level after overloadWindow consecutive
// invocations whose work is below overloadLow of the quantum one level
// down. The two fractions leave a factor-2 band, so a recovery can never
// trigger an immediate re-degrade.
const (
	overloadHigh   = 0.5
	overloadLow    = 0.25
	overloadWindow = 8
)

func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.MaxQuantum <= 0 {
		c.MaxQuantum = 40 * time.Millisecond
	}
	return c
}

// overloadState is the guard's loop-owned state (only touched under
// loopMu); the externally visible level and effective quantum live in
// healthCounters atomics.
type overloadState struct {
	level int // current degradation level: effQ = baseQ << level
	hot   int // consecutive invocations above the degrade threshold
	cool  int // consecutive invocations below the recovery threshold
}

// noteWork feeds one invocation's measured control-loop work to the
// guard. Called from Step under loopMu.
func (r *Runner) noteWork(work time.Duration) {
	if !r.cfg.Overload.Enable {
		return
	}
	effQ := r.EffectiveQuantum()
	if float64(work) > overloadHigh*float64(effQ) {
		r.over.hot++
		r.over.cool = 0
		canStretch := r.baseQ<<(r.over.level+1) <= r.cfg.Overload.MaxQuantum
		if r.over.hot >= overloadWindow && canStretch {
			r.over.hot = 0
			r.setLevel(r.over.level+1, obs.ReasonOverload)
		}
		return
	}
	r.over.hot = 0
	if r.over.level > 0 && float64(work) < overloadLow*float64(effQ/2) {
		r.over.cool++
		if r.over.cool >= overloadWindow {
			r.over.cool = 0
			r.setLevel(r.over.level-1, obs.ReasonRecovered)
		}
	} else {
		r.over.cool = 0
	}
}

// setLevel moves the guard to a new degradation level: the scheduler's
// quantum is stretched/restored (allowances are durations, unaffected;
// future grants and the §2.4 blocked charge use the new Q), the change
// is traced and counted, and the loop timer picks it up on its next
// re-arm.
func (r *Runner) setLevel(level int, reason obs.Reason) {
	r.over.level = level
	effQ := r.baseQ << level
	if err := r.sched.SetQuantum(effQ); err != nil {
		r.errf("overload: set quantum %v: %v", effQ, err)
		return
	}
	r.health.effQuantumNS.Store(int64(effQ))
	r.health.degradeLevel.Store(int64(level))
	if reason == obs.ReasonOverload {
		r.health.overloadDegrades.Add(1)
	} else {
		r.health.overloadRecovers.Add(1)
	}
	r.errf("overload guard: level %d, effective quantum %v (%s)", level, effQ, reason)
	r.emit(obs.Event{
		Kind:   obs.KindDegrade,
		Reason: reason,
		Tick:   r.sched.Tick(),
		Task:   -1,
		N:      level,
		Length: effQ,
	})
}
