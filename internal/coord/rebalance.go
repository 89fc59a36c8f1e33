package coord

import (
	"math"
	"sort"

	"alps/internal/metrics"
)

// The rebalance planner. The coordinator's only lever is each shard's
// *local* share vector — shards schedule autonomously, and a local
// proportional-share scheduler only honours ratios among co-located
// principals. Plan therefore runs a damped multiplicative update: a
// principal whose global consumed fraction fell short of its weight gets
// its local share multiplied up on every shard hosting it, one that
// overshot gets multiplied down, each shard's vector is renormalized to a
// fixed total (preserving the local ratios, which are all that matter),
// and the step is clamped so a noisy window cannot slingshot the
// distribution. This is the cluster-level fractional-share regime of
// Casanova et al. (Dynamic Fractional Resource Scheduling vs Batch
// Scheduling): shares move, jobs don't.

// PlannerConfig tunes the rebalance step.
type PlannerConfig struct {
	// Gain clamps each round's multiplicative step to [1/Gain, Gain].
	// Must be > 1; default 2 (halve or double at most per round).
	Gain float64
	// ScaleTotal is the per-shard share-vector normalization total;
	// local ratios are preserved, absolute values kept in integer range.
	// Default 4096.
	ScaleTotal int64
	// Deadband: when the measured global RMS share error is already
	// below this, Plan reports no change — close enough, and epoch
	// churn from rounding wobble would be pure noise. Default 0.02.
	Deadband float64
}

// damping is the exponent applied to the raw correction ratio
// (target/actual)^damping. 1 would be the full Newton-like step, which
// overshoots when measurement windows are noisy (they straddle partial
// cycles); the square root is slower, but it converges instead of
// oscillating.
const damping = 0.5

func (c PlannerConfig) withDefaults() PlannerConfig {
	if c.Gain <= 1 {
		c.Gain = 2
	}
	if c.ScaleTotal <= 0 {
		c.ScaleTotal = 4096
	}
	if c.Deadband <= 0 {
		c.Deadband = 0.02
	}
	return c
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
	// GlobalRMS is metrics.ShareError's RMS over the live principals
	// for the input window. Negative when the window carried no signal
	// (no live principal consumed anything).
	GlobalRMS float64
	// Changed reports whether any share moved (an epoch is worth
	// committing only if it did).
	Changed bool
	// Weights is the live-weight vector, the target set GlobalRMS is
	// measured against: every principal hosted by a live shard, with
	// its global weight (1 when absent from the table).
	Weights map[int64]float64
	// Consumed is the window's consumption per principal summed over
	// the live shards, principals outside the target set included.
	Consumed map[int64]float64
}

// Plan computes one rebalance round over the live shards. weights is the
// global distribution (principals absent from it count weight 1); shards
// lists each live shard's committed shares and window consumption.
func Plan(cfg PlannerConfig, weights map[int64]int64, shards []ShardLoad) PlanResult {
	cfg = cfg.withDefaults()
	res := PlanResult{
		Shares:    make(map[string]map[int64]int64, len(shards)),
		GlobalRMS: -1,
		Weights:   make(map[int64]float64),
		Consumed:  make(map[int64]float64),
	}

	// Live principals: union over live shards. A principal whose every
	// host died drops out of the target — redistribution to survivors.
	var live []int64
	for _, s := range shards {
		for p := range s.Shares {
			if _, ok := res.Weights[p]; !ok {
				w := float64(1)
				if v := weights[p]; v > 0 {
					w = float64(v)
				}
				res.Weights[p] = w
				live = append(live, p)
			}
		}
		for p, c := range s.Consumed {
			res.Consumed[p] += c
		}
	}
	if len(live) == 0 {
		return res
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })

	// Copy-through defaults; overwritten below when there is signal.
	for _, s := range shards {
		out := make(map[int64]int64, len(s.Shares))
		for p, sh := range s.Shares {
			out[p] = sh
		}
		res.Shares[s.Name] = out
	}
	consumed := make([]float64, len(live))
	weight := make([]float64, len(live))
	for i, p := range live {
		consumed[i], weight[i] = res.Consumed[p], res.Weights[p]
	}
	rel := make([]float64, len(live))
	rms, ok := metrics.ShareError(rel, consumed, weight)
	if !ok {
		return res // idle window: nothing to measure, nothing to move
	}
	res.GlobalRMS = rms
	if rms < cfg.Deadband {
		return res // converged: hold the distribution steady
	}

	// Per-principal raw correction ratio (t/f)^damping, from the
	// achieved-to-target fraction f/t = 1 + rel (clamped per shard
	// below, after the capacity exponent).
	ratio := make(map[int64]float64, len(live))
	for i, p := range live {
		r := cfg.Gain // unserved principal: maximum boost
		if consumed[i] > 0 {
			r = math.Pow(1+rel[i], -damping)
		}
		ratio[p] = r
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
