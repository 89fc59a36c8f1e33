package coord

import (
	"fmt"
	"math"
	"testing"
	"time"

	"alps/internal/core"
	"alps/internal/trace"
)

// simulateWindow models what a fleet of 1-CPU shards would consume in
// one window given local share vectors: each shard spends the window's
// CPU in proportion to its local shares (a perfect local
// proportional-share scheduler, all principals backlogged).
func simulateWindow(shares map[string]map[int64]int64, window float64) []ShardLoad {
	var loads []ShardLoad
	for name, sv := range shares {
		var tot int64
		for _, sh := range sv {
			tot += sh
		}
		consumed := make(map[int64]float64, len(sv))
		for p, sh := range sv {
			consumed[p] = window * float64(sh) / float64(tot)
		}
		cp := make(map[int64]int64, len(sv))
		for p, sh := range sv {
			cp[p] = sh
		}
		loads = append(loads, ShardLoad{Name: name, Shares: cp, Consumed: consumed})
	}
	return loads
}

// TestPlanConverges: starting from a maximally skewed distribution, the
// damped multiplicative update drives the global RMS share error under
// the deadband within 12 rounds, the bound DESIGN.md documents. The
// first case hosts one principal twice under weights 4:2:1; the ring
// fleets scale the same uniform start to 64 shards.
func TestPlanConverges(t *testing.T) {
	type fleet struct {
		name    string
		weights map[int64]int64
		shares  map[string]map[int64]int64
	}
	cases := []fleet{
		{
			// 2 shards, 3 principals; global weights 4:2:1 but initial
			// local shares are uniform, so principal 1 (hosted twice)
			// starts far over.
			name:    "S=2",
			weights: map[int64]int64{1: 4, 2: 2, 3: 1},
			shares: map[string]map[int64]int64{
				"s1": {1: 100, 2: 100},
				"s2": {1: 100, 3: 100},
			},
		},
	}
	for _, s := range []int{4, 16, 64} {
		weights, shares := ringFleet(s)
		cases = append(cases, fleet{fmt.Sprintf("S=%d", s), weights, shares})
	}
	var cfg PlannerConfig
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			shares := tc.shares
			lastRMS := math.Inf(1)
			for round := 1; round <= 12; round++ {
				res := Plan(cfg, tc.weights, simulateWindow(shares, 1.0))
				if res.GlobalRMS < 0 {
					t.Fatalf("round %d: no RMS measured", round)
				}
				if !res.Changed {
					if res.GlobalRMS >= cfg.withDefaults().Deadband {
						t.Fatalf("round %d: planner stopped at rms=%.4f, above deadband", round, res.GlobalRMS)
					}
					t.Logf("converged after %d rounds (rms=%.4f)", round, res.GlobalRMS)
					return
				}
				lastRMS = res.GlobalRMS
				shares = res.Shares
			}
			t.Fatalf("did not converge in 12 rounds (last rms=%.4f)", lastRMS)
		})
	}
}

// ringFleet builds an s-shard ring (s even): principal p is hosted on
// shards p and (p+1) mod s, weights alternate 4 (even p) and 1 (odd p),
// and every local share starts at 100. Each shard then hosts one heavy
// and one light principal, so the heavy principal's global demand (1.6
// windows) fits its two hosts, with the exact solution at 4:1 local
// shares everywhere; a steeper spread would ask more than two replicas
// can serve.
func ringFleet(s int) (map[int64]int64, map[string]map[int64]int64) {
	weights := make(map[int64]int64, s)
	shares := make(map[string]map[int64]int64, s)
	shardName := func(i int) string { return fmt.Sprintf("s%03d", i) }
	for i := 0; i < s; i++ {
		shares[shardName(i)] = make(map[int64]int64, 2)
	}
	for p := 0; p < s; p++ {
		weights[int64(p)] = 1
		if p%2 == 0 {
			weights[int64(p)] = 4
		}
		shares[shardName(p)][int64(p)] = 100
		shares[shardName((p+1)%s)][int64(p)] = 100
	}
	return weights, shares
}

// TestPlanDeadband: an already-balanced fleet is left alone — no epoch
// churn from rounding wobble.
func TestPlanDeadband(t *testing.T) {
	weights := map[int64]int64{1: 1, 2: 1}
	shares := map[string]map[int64]int64{"s1": {1: 100, 2: 100}}
	res := Plan(PlannerConfig{}, weights, simulateWindow(shares, 1.0))
	if res.Changed {
		t.Fatalf("balanced fleet replanned: %v", res.Shares)
	}
	if res.GlobalRMS >= 0.02 {
		t.Fatalf("balanced fleet measured rms=%.4f", res.GlobalRMS)
	}
}

// TestPlanIdleWindow: a window in which no live principal consumed
// anything carries no signal — even if a principal no live shard hosts
// did; shares are copied through unchanged and RMS reports -1.
func TestPlanIdleWindow(t *testing.T) {
	for _, consumed := range []map[int64]float64{nil, {1: 0, 9: 0.5}} {
		res := Plan(PlannerConfig{}, map[int64]int64{1: 1, 2: 4},
			[]ShardLoad{{Name: "s1", Shares: map[int64]int64{1: 50, 2: 50}, Consumed: consumed}})
		if res.Changed {
			t.Fatalf("idle window %v moved shares", consumed)
		}
		if res.GlobalRMS != -1 {
			t.Fatalf("idle window %v rms = %v, want -1", consumed, res.GlobalRMS)
		}
		if res.Shares["s1"][1] != 50 || res.Shares["s1"][2] != 50 {
			t.Fatalf("idle window %v altered shares: %v", consumed, res.Shares)
		}
	}
}

// TestPlanDeadShardRedistribution: when every host of a principal dies,
// the principal drops out of the target and the survivors' principals
// absorb its weight — the surviving distribution is planned among the
// living only.
func TestPlanDeadShardRedistribution(t *testing.T) {
	weights := map[int64]int64{1: 1, 2: 1, 3: 2}
	// Shard s2 (sole host of principal 3) is dead: not in the input.
	shares := map[string]map[int64]int64{"s1": {1: 10, 2: 30}}
	res := Plan(PlannerConfig{}, weights, simulateWindow(shares, 1.0))
	if !res.Changed {
		t.Fatal("skewed survivors not replanned")
	}
	s1 := res.Shares["s1"]
	if _, ok := s1[3]; ok {
		t.Fatalf("dead principal 3 assigned to survivor: %v", s1)
	}
	// Principals 1 and 2 have equal weight; shares must move toward
	// parity from the 10:30 skew.
	r := float64(s1[1]) / float64(s1[2])
	if r <= 10.0/30.0 {
		t.Fatalf("share ratio did not move toward parity: %v", s1)
	}
}

// TestPlanClamp: one round can at most double or halve a share (Gain 2),
// so one noisy window cannot slingshot the distribution.
func TestPlanClamp(t *testing.T) {
	// Principal 1 is massively underserved under uniform consumption:
	// even the damped step, (1/0.2)^0.5 ≈ 2.2 up and far below 0.5 down
	// for the rest, lies past the clamp.
	weights := map[int64]int64{1: 1_000_000, 2: 1, 3: 1, 4: 1, 5: 1}
	shares := map[string]map[int64]int64{"s1": {1: 10, 2: 10, 3: 10, 4: 10, 5: 10}}
	res := Plan(PlannerConfig{ScaleTotal: 40}, weights, simulateWindow(shares, 1.0))
	if !res.Changed {
		t.Fatal("skew not replanned")
	}
	s1 := res.Shares["s1"]
	// Ratios are clamped to [0.5, 2]: 10*2 : 10*0.5 (×4) = 20:5:5:5:5 of
	// total 40.
	want := map[int64]int64{1: 20, 2: 5, 3: 5, 4: 5, 5: 5}
	for p, w := range want {
		if s1[p] != w {
			t.Fatalf("clamped step gave %v, want %v", s1, want)
		}
	}
}

// TestPlanUnservedPrincipal: a principal with zero consumption in a
// busy window gets the maximum boost instead of a divide-by-zero.
func TestPlanUnservedPrincipal(t *testing.T) {
	weights := map[int64]int64{1: 1, 2: 1}
	loads := []ShardLoad{{
		Name:     "s1",
		Shares:   map[int64]int64{1: 100, 2: 100},
		Consumed: map[int64]float64{1: 1.0}, // principal 2 starved
	}}
	res := Plan(PlannerConfig{}, weights, loads)
	if !res.Changed {
		t.Fatal("starved principal not replanned")
	}
	s1 := res.Shares["s1"]
	if s1[2] <= s1[1] {
		t.Fatalf("starved principal not boosted: %v", s1)
	}
}

// TestPlanCapacityWeighted: a 2×-capacity shard absorbs more of each
// round's correction than a 1× peer — its exponent is capacity/mean, so
// the big host's shares move further toward the target in one step —
// while a fleet with *uniform* capacities (whatever the value) plans
// byte-identically to a capacity-blind fleet.
func TestPlanCapacityWeighted(t *testing.T) {
	weights := map[int64]int64{1: 3, 2: 1}
	mkLoads := func(caps map[string]float64) []ShardLoad {
		loads := simulateWindow(map[string]map[int64]int64{
			"s1": {1: 100, 2: 100},
			"s2": {1: 100, 2: 100},
		}, 1.0)
		for i := range loads {
			loads[i].Capacity = caps[loads[i].Name]
		}
		return loads
	}

	// Uniform capacity (2.0 everywhere) reduces exactly to capacity-blind.
	blind := Plan(PlannerConfig{}, weights, mkLoads(nil))
	uniform := Plan(PlannerConfig{}, weights, mkLoads(map[string]float64{"s1": 2, "s2": 2}))
	for _, name := range []string{"s1", "s2"} {
		if !sameShares(blind.Shares[name], uniform.Shares[name]) {
			t.Fatalf("uniform capacity changed the plan for %s: %v vs %v",
				name, uniform.Shares[name], blind.Shares[name])
		}
	}

	// Mixed fleet: s2 has twice s1's capacity. Both host the underserved
	// principal 1 (weight 3, consuming like weight 1), so both boost it —
	// but s2 must take the larger step.
	res := Plan(PlannerConfig{}, weights, mkLoads(map[string]float64{"s1": 1, "s2": 2}))
	if !res.Changed {
		t.Fatal("skewed mixed-capacity fleet not replanned")
	}
	s1, s2 := res.Shares["s1"], res.Shares["s2"]
	if s2[1] <= s1[1] {
		t.Fatalf("2x shard did not take the bigger boost: s1=%v s2=%v", s1, s2)
	}
	if s2[2] >= s1[2] {
		t.Fatalf("2x shard did not take the bigger cut: s1=%v s2=%v", s1, s2)
	}
	// Both still move in the right direction relative to the 100:100 start.
	if s1[1] <= s1[2] || s2[1] <= s2[2] {
		t.Fatalf("correction direction wrong: s1=%v s2=%v", s1, s2)
	}
}

// TestScaleSharesDeterministic: identical inputs yield identical output
// regardless of map iteration order (run a few times to shake it).
func TestScaleSharesDeterministic(t *testing.T) {
	shares := map[int64]int64{5: 7, 1: 13, 9: 3, 2: 11}
	ratio := map[int64]float64{5: 1.7, 1: 0.6, 9: 2.0, 2: 1.0}
	first := scaleShares(shares, ratio, 4096)
	for i := 0; i < 10; i++ {
		if got := scaleShares(shares, ratio, 4096); !sameShares(got, first) {
			t.Fatalf("run %d differed: %v vs %v", i, got, first)
		}
	}
	var tot int64
	for _, sh := range first {
		tot += sh
	}
	if tot < 4090 || tot > 4102 {
		t.Fatalf("renormalized total %d far from 4096: %v", tot, first)
	}
}

// TestShareErrorAgreement: the node auditor, the coordinator's fleet
// estimators and the planner report one RMS share error for one window.
// The node auditor sees only its target tasks; the fleet estimators and
// Plan see the same window plus principal 9, which no live shard hosts.
// 9 is outside the target set, so its consumption must move neither the
// consumed nor the target fractions.
func TestShareErrorAgreement(t *testing.T) {
	weights := map[int64]int64{1: 4, 2: 2, 3: 1}
	node := trace.NewAuditor(trace.AuditorConfig{Window: 1})
	node.OnCycle(core.CycleRecord{Tasks: []core.CycleTask{
		{ID: 1, Share: 4, Consumed: 500 * time.Millisecond},
		{ID: 2, Share: 2, Consumed: 300 * time.Millisecond},
		{ID: 3, Share: 1, Consumed: 200 * time.Millisecond},
	}})

	loads := []ShardLoad{
		{Name: "a", Shares: map[int64]int64{1: 100, 2: 100}, Consumed: map[int64]float64{1: 0.5, 2: 0.1}},
		{Name: "b", Shares: map[int64]int64{2: 100, 3: 100}, Consumed: map[int64]float64{2: 0.2, 3: 0.2, 9: 0.7}},
	}
	res := Plan(PlannerConfig{}, weights, loads)

	// Server.Rebalance folds Plan's own result into its estimators: the
	// per-round RMS is res.GlobalRMS, and the windowed RMS (one round so
	// far) measures res.Consumed against res.Weights.
	stats := newFleetStats()
	stats.round(res)

	want := node.RMSShareError()
	if want < 0.1 {
		t.Fatalf("node RMS %v: the window should be visibly off share", want)
	}
	for name, got := range map[string]float64{
		"Plan.GlobalRMS":     res.GlobalRMS,
		"fleet windowed RMS": stats.windowRMS,
		"fleet EWMA":         stats.ewma.Value(),
	} {
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, node auditor = %v", name, got, want)
		}
	}

	// Plan hands Server.Rebalance the same target set and window it
	// measured, so the coordinator feeds its estimators without
	// rebuilding them.
	if len(res.Weights) != 3 || res.Weights[1] != 4 || res.Weights[2] != 2 || res.Weights[3] != 1 {
		t.Errorf("Plan live weights = %v, want {1:4 2:2 3:1}", res.Weights)
	}
	if res.Consumed[9] != 0.7 || math.Abs(res.Consumed[2]-0.3) > 1e-15 {
		t.Errorf("Plan consumed = %v, want the window summed over shards", res.Consumed)
	}
}
