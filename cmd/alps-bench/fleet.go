package main

import (
	"fmt"
	"sort"

	"alps/internal/coord"
)

// Rebalance convergence: starting from a maximally skewed fleet
// (uniform local shares under skewed global weights), how many
// coordinator rounds does the damped multiplicative planner need to
// drive the global RMS share error under its deadband? The model is the
// same perfect-local-scheduler window the planner unit tests use: each
// 1-CPU shard consumes in proportion to its local share vector, all
// principals backlogged — the planner's worst case for signal quality
// is noise, not this, so the round count here is a floor that must stay
// put. The gate (convergenceRoundsGate) matches TestPlanConverges in
// internal/coord; a planner change that slows convergence past it fails
// the bench.
const (
	convergenceRoundsGate = 12
	convergenceRoundsCap  = 40
)

type convergenceRow struct {
	Shards     int     `json:"shards"`
	Principals int     `json:"principals"`
	Rounds     int     `json:"rounds_to_deadband"`
	FinalRMS   float64 `json:"final_rms"`
	InitialRMS float64 `json:"initial_rms"`
}

// fleetWindow is simulateWindow from the planner tests: perfect local
// proportional consumption of one window per shard.
func fleetWindow(shares map[string]map[int64]int64) []coord.ShardLoad {
	var loads []coord.ShardLoad
	for name, sv := range shares {
		var tot int64
		for _, sh := range sv {
			tot += sh
		}
		consumed := make(map[int64]float64, len(sv))
		for p, sh := range sv {
			consumed[p] = float64(sh) / float64(tot)
		}
		cp := make(map[int64]int64, len(sv))
		for p, sh := range sv {
			cp[p] = sh
		}
		loads = append(loads, coord.ShardLoad{Name: name, Shares: cp, Consumed: consumed})
	}
	sort.Slice(loads, func(i, j int) bool { return loads[i].Name < loads[j].Name })
	return loads
}

// measureConvergence runs the planner to convergence on a ring fleet of
// s shards (s even): principal p is hosted on shards p and (p+1) mod s,
// weights alternate 4 (even p) and 1 (odd p), and initial local shares
// are uniform — the skew the planner must undo. The alternation keeps
// the topology feasible: each shard hosts one heavy and one light
// principal, so the heavy principal's global demand (1.6 windows) fits
// its two hosts, with the exact solution at 4:1 local shares
// everywhere. Steeper weight spreads are infeasible with two replicas —
// a demand above 2 windows cannot be served — so this is the hardest
// feasible uniform-start case.
func measureConvergence(s int) (convergenceRow, error) {
	weights, shares := ringFleet(s)
	row := convergenceRow{Shards: s, Principals: s, InitialRMS: -1, FinalRMS: -1}
	var cfg coord.PlannerConfig
	for round := 1; round <= convergenceRoundsCap; round++ {
		res := coord.Plan(cfg, weights, fleetWindow(shares))
		if res.GlobalRMS < 0 {
			return row, fmt.Errorf("S=%d round %d: no RMS measured", s, round)
		}
		if row.InitialRMS < 0 {
			row.InitialRMS = res.GlobalRMS
		}
		row.FinalRMS = res.GlobalRMS
		if !res.Changed {
			row.Rounds = round
			return row, nil
		}
		shares = res.Shares
	}
	return row, fmt.Errorf("S=%d: planner did not converge in %d rounds (rms=%.4f)",
		s, convergenceRoundsCap, row.FinalRMS)
}

// ringFleet builds the s-shard ring with alternating 4/1 weights and
// uniform initial shares.
func ringFleet(s int) (map[int64]int64, map[string]map[int64]int64) {
	weights := make(map[int64]int64, s)
	shares := make(map[string]map[int64]int64, s)
	shardName := func(i int) string { return fmt.Sprintf("s%03d", i) }
	for i := 0; i < s; i++ {
		shares[shardName(i)] = make(map[int64]int64, 2)
	}
	for p := 0; p < s; p++ {
		if p%2 == 0 {
			weights[int64(p)] = 4
		} else {
			weights[int64(p)] = 1
		}
		shares[shardName(p)][int64(p)] = 100
		shares[shardName((p+1)%s)][int64(p)] = 100
	}
	return weights, shares
}

// runConvergence produces the report section and enforces the gate.
func runConvergence() ([]convergenceRow, bool, error) {
	var rows []convergenceRow
	within := true
	for _, s := range []int{4, 16, 64} {
		row, err := measureConvergence(s)
		if err != nil {
			return nil, false, err
		}
		if row.Rounds > convergenceRoundsGate {
			within = false
		}
		rows = append(rows, row)
	}
	return rows, within, nil
}
