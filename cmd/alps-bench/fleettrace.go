package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"alps/internal/coord"
	"alps/internal/coord/coordsim"
	"alps/internal/fleetobs"
	"alps/internal/trace"
)

// runFleetTrace is the fleet-tracing smoke: a deterministic coordsim
// fleet (coordinator + two shards on a virtual clock) converges, one
// shard's flight recorder "fires" so the coordinator opens a correlated
// collection and both members upload their windows, and the merged
// epoch-causal trace is written to TRACE_fleet.json (Perfetto-loadable).
// It hard-fails unless the trace validates, every committed epoch shows
// a publish→apply flow, and the collection gathered every member — the
// CI gate that fleet tracing stays wired end to end.
func runFleetTrace() error {
	clk := coordsim.NewClock()
	net := coordsim.NewNet()
	stack := fleetobs.NewStack(fleetobs.StackConfig{
		Node: "coord", Now: clk.Now, Cooldown: time.Second,
	})
	srv, err := coord.NewServer(coord.ServerConfig{
		TTL:            time.Second,
		RebalanceEvery: 200 * time.Millisecond,
		Weights:        map[int64]int64{1: 400, 2: 100, 3: 200, 4: 100},
		Clock:          clk.Now,
		Fleet:          stack,
	})
	if err != nil {
		return err
	}
	net.Host("coord", srv)

	type smokeShard struct {
		name   string
		tracer *fleetobs.Tracer
		agent  *coord.Agent

		mu       sync.Mutex
		shares   map[int64]int64
		consumed map[int64]float64
		cycles   int64
		dumps    int64
	}
	mkShard := func(name string, shares map[int64]int64) (*smokeShard, error) {
		sh := &smokeShard{
			name:     name,
			shares:   shares,
			consumed: make(map[int64]float64),
			tracer:   fleetobs.NewTracer(fleetobs.TracerConfig{Node: name, Now: clk.Now}),
		}
		agent, err := coord.NewAgent(coord.AgentConfig{
			URL: "http://coord", Shard: name,
			Tasks: func() []coord.TaskShare {
				sh.mu.Lock()
				defer sh.mu.Unlock()
				var out []coord.TaskShare
				for id, s := range sh.shares {
					out = append(out, coord.TaskShare{ID: id, Share: s})
				}
				return out
			},
			Gauges: func() coord.ShardGauges {
				sh.mu.Lock()
				defer sh.mu.Unlock()
				consumed := make(map[int64]float64, len(sh.consumed))
				for id, c := range sh.consumed {
					consumed[id] = c
				}
				return coord.ShardGauges{
					Consumed: consumed, RMSShareError: 0.05,
					Cycles: sh.cycles, TraceDumps: sh.dumps,
				}
			},
			Apply: func(a coord.Assignment) error {
				sh.mu.Lock()
				defer sh.mu.Unlock()
				for _, ts := range a.Tasks {
					sh.shares[ts.ID] = ts.Share
				}
				return nil
			},
			Period: 100 * time.Millisecond,
			Clock:  clk.Now, Transport: net.Transport(name),
			Tracer: sh.tracer,
			Collect: func(fleetobs.DumpRequest) (fleetobs.DumpPayload, bool) {
				return fleetobs.DumpPayload{Fleet: sh.tracer.Snapshot()}, true
			},
		})
		if err != nil {
			return nil, err
		}
		sh.agent = agent
		return sh, nil
	}
	s1, err := mkShard("s1", map[int64]int64{1: 100, 2: 100})
	if err != nil {
		return err
	}
	s2, err := mkShard("s2", map[int64]int64{3: 100, 4: 100})
	if err != nil {
		return err
	}
	shards := []*smokeShard{s1, s2}

	// Each 100ms step: shards consume proportionally to their applied
	// shares (a perfect local scheduler), heartbeat, and the coordinator
	// ticks. Halfway in, s1's flight recorder "fires" and the next
	// heartbeat carries the bumped dump counter.
	const step = 100 * time.Millisecond
	steps := 60
	if *quick {
		steps = 40
	}
	for i := 0; i < steps; i++ {
		clk.Advance(step)
		for _, sh := range shards {
			sh.mu.Lock()
			var tot int64
			for _, s := range sh.shares {
				tot += s
			}
			for id, s := range sh.shares {
				if tot > 0 {
					sh.consumed[id] += step.Seconds() * float64(s) / float64(tot)
				}
			}
			sh.cycles++
			if sh.name == "s1" && i == steps/2 {
				sh.dumps++
			}
			sh.mu.Unlock()
			sh.agent.Step()
		}
		srv.Tick(clk.Now())
	}

	// Merge every live window — coordinator track first, then shards —
	// and validate the result the way /debug/fleet-trace consumers will.
	sources := []trace.FleetSource{stack.Tracer.Source(nil, time.Time{})}
	for _, sh := range shards {
		sources = append(sources, sh.tracer.Source(nil, time.Time{}))
	}
	events := trace.BuildFleet(sources)
	var flows, spans int
	for _, ev := range events {
		switch ev.Ph {
		case "f":
			flows++
		case "X":
			spans++
		}
	}
	var buf bytes.Buffer
	if err := trace.WriteFleet(&buf, sources, nil); err != nil {
		return fmt.Errorf("fleettrace: merge: %w", err)
	}
	if err := trace.Validate(buf.Bytes()); err != nil {
		return fmt.Errorf("fleettrace: merged trace invalid: %w", err)
	}

	dir := *out
	if dir == "" {
		dir = "."
	}
	path := filepath.Join(dir, "TRACE_fleet.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}

	st := srv.Status()
	req, members, ok := stack.Bundler.Last()
	fmt.Printf("Fleet tracing smoke (%d shards, %d virtual steps of %v)\n", len(shards), steps, step)
	fmt.Printf("  committed epochs:        %d (global RMS %.3f, converged=%v)\n",
		st.Epoch, st.GlobalRMSWindowed, st.Converged)
	fmt.Printf("  merged trace:            %d spans, %d publish->apply flows, %d bytes\n",
		spans, flows, buf.Len())
	fmt.Printf("  epoch propagation:       %d observations, max %.3fs\n",
		st.PropagationCount, st.PropagationMaxSec)
	if ok {
		fmt.Printf("  correlated collection:   reason=%s epoch=%d members=%d\n",
			req.Reason, req.Epoch, len(members))
	}
	fmt.Printf("  wrote %s\n", path)

	// Gates: causality must actually be drawn, not just written.
	if st.Epoch == 0 {
		return fmt.Errorf("fleettrace: no epoch ever committed")
	}
	if flows == 0 {
		return fmt.Errorf("fleettrace: merged trace has no publish->apply flows")
	}
	if st.PropagationCount == 0 {
		return fmt.Errorf("fleettrace: no epoch propagation was observed")
	}
	if !ok || req.Reason != "shard_dump" {
		return fmt.Errorf("fleettrace: shard recorder fire did not open a collection (got %+v, ok=%v)", req, ok)
	}
	if len(members) != len(shards)+1 {
		return fmt.Errorf("fleettrace: collection gathered %d members, want coordinator + %d shards", len(members), len(shards))
	}
	// The downloadable bundle must validate exactly like the live merge.
	var bundle bytes.Buffer
	if err := trace.WriteFleet(&bundle, members, nil); err != nil {
		return fmt.Errorf("fleettrace: bundle merge: %w", err)
	}
	if err := trace.Validate(bundle.Bytes()); err != nil {
		return fmt.Errorf("fleettrace: bundle trace invalid: %w", err)
	}
	return nil
}
