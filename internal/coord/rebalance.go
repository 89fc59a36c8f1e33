package coord

import (
	"math"
	"sort"

	"alps/internal/fleetobs"
	"alps/internal/metrics"
)

// The rebalance planner. The coordinator's only lever is each shard's
// *local* share vector — shards schedule autonomously, and a local
// proportional-share scheduler only honours ratios among co-located
// principals. Plan therefore runs a damped multiplicative update (the
// same feedback shape as internal/rsv, lifted to the fleet): a principal
// whose global consumed fraction fell short of its weight gets its local
// share multiplied up on every shard hosting it, one that overshot gets
// multiplied down, each shard's vector is renormalized to a fixed total
// (preserving the local ratios, which are all that matter), and the step
// is clamped so a noisy window cannot slingshot the distribution. This
// is the cluster-level fractional-share regime of Casanova et al.
// (Dynamic Fractional Resource Scheduling vs Batch Scheduling): shares
// move, jobs don't.

// PlannerConfig tunes the rebalance step.
type PlannerConfig struct {
	// Gain clamps each round's multiplicative step to [1/Gain, Gain].
	// Must be > 1; default 2 (halve or double at most per round).
	Gain float64
	// Damping is the exponent applied to the raw correction ratio
	// (target/actual)^Damping, in (0, 1]. 1 is the full Newton-like
	// step, which overshoots when measurement windows are noisy (they
	// straddle partial cycles); default 0.5 takes the square root —
	// slower, but it converges instead of oscillating.
	Damping float64
	// ScaleTotal is the per-shard share-vector normalization total;
	// local ratios are preserved, absolute values kept in integer range.
	// Default 4096.
	ScaleTotal int64
	// Deadband: when the measured global RMS share error is already
	// below this, Plan reports no change — close enough, and epoch
	// churn from rounding wobble would be pure noise. Default 0.02.
	Deadband float64
}

func (c PlannerConfig) withDefaults() PlannerConfig {
	if c.Gain <= 1 {
		c.Gain = 2
	}
	if c.Damping <= 0 || c.Damping > 1 {
		c.Damping = 0.5
	}
	if c.ScaleTotal <= 0 {
		c.ScaleTotal = 4096
	}
	if c.Deadband <= 0 {
		c.Deadband = 0.02
	}
	return c
}

// AdaptPlanner closes the observability loop: it derives one round's
// effective planner tuning from the fleet auditor's convergence view.
// The rules are deliberately coarse — this is hysteresis, not a second
// controller:
//
//	converged, EWMA inside the deadband  → widen the deadband 2× and
//	  halve the damping exponent: the fleet is where it should be, so
//	  freeze epoch churn and make any step that does fire gentle;
//	cv.EWMA above 2× the deadband and rising → undamp (exponent ×1.5,
//	  capped at the full Newton step): the error is real and growing,
//	  wobble-safety is the wrong trade;
//	anything else (or no signal yet)     → the static tuning.
//
// The EWMA estimator, not the raw per-round RMS, feeds both rules: the
// raw gauge beats against shard duty cycles (see internal/fleetobs),
// and damping decisions keyed to an aliased signal would breathe with
// the beat.
func AdaptPlanner(base PlannerConfig, cv fleetobs.ConvergenceView) PlannerConfig {
	base = base.withDefaults()
	if !cv.Valid {
		return base
	}
	switch {
	case cv.Converged && cv.EWMA < base.Deadband:
		base.Deadband *= 2
		base.Damping /= 2
	case cv.EWMA > 2*base.Deadband && cv.Rising:
		if d := base.Damping * 1.5; d < 1 {
			base.Damping = d
		} else {
			base.Damping = 1
		}
	}
	return base
}

// ShardLoad is one live shard's input to a rebalance round.
type ShardLoad struct {
	Name string
	// Shares is the shard's currently committed local share vector.
	Shares map[int64]int64
	// Consumed is CPU consumed per principal over the last window,
	// in seconds (already differenced by the caller).
	Consumed map[int64]float64
	// Capacity is the shard's relative capacity weight (0 means 1.0).
	// Corrections are exponentiated by capacity/mean-capacity, so a 2×
	// host absorbs more of each round's adjustment than a 1× host —
	// shares move where there is CPU to back them. Uniform capacities
	// reduce exactly to the capacity-blind update.
	Capacity float64
}

// PlanResult is one rebalance round's outcome.
type PlanResult struct {
	// Shares is the new per-shard assignment (every live shard present,
	// unchanged vectors included).
	Shares map[string]map[int64]int64
	// GlobalRMS is the RMS relative global share error measured from
	// the input window: rms over principals of (f_p - t_p)/t_p where
	// f_p is the consumed fraction and t_p the weight fraction.
	// Negative when the window carried no consumption to measure.
	GlobalRMS float64
	// Changed reports whether any share moved (an epoch is worth
	// committing only if it did).
	Changed bool
}

// Plan computes one rebalance round over the live shards. weights is the
// global distribution (principals absent from it count weight 1); shards
// lists each live shard's committed shares and window consumption.
func Plan(cfg PlannerConfig, weights map[int64]int64, shards []ShardLoad) PlanResult {
	cfg = cfg.withDefaults()
	res := PlanResult{Shares: make(map[string]map[int64]int64, len(shards)), GlobalRMS: -1}

	// Live principals: union over live shards. A principal whose every
	// host died drops out of the target — redistribution to survivors.
	weightOf := func(p int64) float64 {
		if w, ok := weights[p]; ok && w > 0 {
			return float64(w)
		}
		return 1
	}
	actual := make(map[int64]float64)
	var totalW, totalC float64
	live := make(map[int64]bool)
	for _, s := range shards {
		for p := range s.Shares {
			if !live[p] {
				live[p] = true
				totalW += weightOf(p)
			}
		}
		for p, c := range s.Consumed {
			actual[p] += c
			totalC += c
		}
	}
	if len(live) == 0 {
		return res
	}

	// Copy-through defaults; overwritten below when there is signal.
	for _, s := range shards {
		out := make(map[int64]int64, len(s.Shares))
		for p, sh := range s.Shares {
			out[p] = sh
		}
		res.Shares[s.Name] = out
	}
	if totalC <= 0 || totalW <= 0 {
		return res // idle window: nothing to measure, nothing to move
	}

	// Measured error and per-principal raw correction ratio (clamped
	// per shard below, after the capacity exponent).
	ratio := make(map[int64]float64, len(live))
	rel := make([]float64, 0, len(live))
	for p := range live {
		t := weightOf(p) / totalW
		f := actual[p] / totalC
		rel = append(rel, (f-t)/t)
		r := cfg.Gain // unserved principal: maximum boost
		if f > 0 {
			r = math.Pow(t/f, cfg.Damping)
		}
		ratio[p] = r
	}
	res.GlobalRMS = metrics.RMS(rel)
	if res.GlobalRMS < cfg.Deadband {
		return res // converged: hold the distribution steady
	}

	// Capacity-weighted step: each shard's correction is the global
	// ratio raised to capacity/mean — a 2× host takes a bigger step, a
	// ½× host a gentler one, and a uniform fleet gets exponent 1 exactly
	// (byte-identical to the capacity-blind plan).
	capOf := func(s ShardLoad) float64 {
		if s.Capacity > 0 {
			return s.Capacity
		}
		return 1
	}
	var capSum float64
	for _, s := range shards {
		capSum += capOf(s)
	}
	capMean := capSum / float64(len(shards))

	shardRatio := make(map[int64]float64, len(ratio))
	for _, s := range shards {
		e := capOf(s) / capMean
		for p, r := range ratio {
			if e != 1 {
				r = math.Pow(r, e)
			}
			shardRatio[p] = clamp(r, 1/cfg.Gain, cfg.Gain)
		}
		res.Shares[s.Name] = scaleShares(s.Shares, shardRatio, cfg.ScaleTotal)
		if !sameShares(res.Shares[s.Name], s.Shares) {
			res.Changed = true
		}
	}
	return res
}

// scaleShares applies the correction ratios to one shard's vector and
// renormalizes it to total, preserving ratios in integer shares ≥ 1.
// Deterministic: principals are processed in sorted order.
func scaleShares(shares map[int64]int64, ratio map[int64]float64, total int64) map[int64]int64 {
	ids := make([]int64, 0, len(shares))
	for p := range shares {
		ids = append(ids, p)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	scaled := make([]float64, len(ids))
	var sum float64
	for i, p := range ids {
		r, ok := ratio[p]
		if !ok {
			r = 1
		}
		v := float64(shares[p]) * r
		if v <= 0 {
			v = 1
		}
		scaled[i] = v
		sum += v
	}
	out := make(map[int64]int64, len(ids))
	if sum <= 0 {
		for _, p := range ids {
			out[p] = 1
		}
		return out
	}
	for i, p := range ids {
		sh := int64(math.Round(scaled[i] / sum * float64(total)))
		if sh < 1 {
			sh = 1
		}
		out[p] = sh
	}
	return out
}

func sameShares(a, b map[int64]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for p, v := range a {
		if b[p] != v {
			return false
		}
	}
	return true
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
