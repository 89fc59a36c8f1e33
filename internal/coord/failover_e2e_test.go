package coord_test

// The replicated-coordinator failover end-to-end test: four real
// osproc.Runners attached through real coord.Agents (replica-set URL
// lists) to a three-replica coordinator on a coordsim in-memory network
// and one virtual clock. The script partitions the leader away from its
// standbys and its shards (a standby takes over by election and
// fast-forwards from shard heartbeats), reconfigures the weight table
// live on the new leader, kills that leader, and lets the fleet walk
// back onto the deposed original — whose stale term-1 publishes must be
// fenced at the shards, deposing it properly — then heals everything
// and asserts a single leader, re-attached agents, strictly monotone
// applied epochs on every shard, bounded global share error, and no
// process left SIGSTOPped.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"alps/internal/coord"
	"alps/internal/coord/coordsim"
	"alps/internal/core"
	"alps/internal/fleetobs"
	"alps/internal/obs"
	"alps/internal/osproc"
)

const foLeaderTTL = 200 * time.Millisecond

var foReplicas = []string{"c1", "c2", "c3"}

// rfleet is the replicated-coordinator simulation: one virtual clock
// and network, three coordinator replicas, four shards.
type rfleet struct {
	t      *testing.T
	clk    *coordsim.Clock
	net    *coordsim.Net
	srvs   map[string]*coord.Server
	regs   map[string]*obs.Registry
	stacks map[string]*fleetobs.Stack
	alive  map[string]bool
	shards []*simShard
}

func replicaSetURL(name string) string { return "http://" + name }

func newReplicatedFleet(t *testing.T) *rfleet {
	t.Helper()
	clk := coordsim.NewClock()
	f := &rfleet{
		t:      t,
		clk:    clk,
		net:    coordsim.NewNet(),
		srvs:   make(map[string]*coord.Server),
		regs:   make(map[string]*obs.Registry),
		stacks: make(map[string]*fleetobs.Stack),
		alive:  make(map[string]bool),
	}
	dir := t.TempDir()
	var urls []string
	for _, n := range foReplicas {
		urls = append(urls, replicaSetURL(n))
	}
	for _, n := range foReplicas {
		var peers []string
		for _, o := range foReplicas {
			if o != n {
				peers = append(peers, replicaSetURL(o))
			}
		}
		// One registry per replica, shared by server and stack as in
		// "alps coord", so the retained timeline carries the server's
		// gauges.
		reg := obs.NewRegistry()
		stack := fleetobs.NewStack(fleetobs.StackConfig{
			Node:         n,
			Metrics:      reg,
			Now:          clk.Now,
			Cooldown:     time.Second,
			HistoryEvery: chaosRebalance, // one timeline point per rebalance round
			Logf:         t.Logf,
		})
		srv, err := coord.NewServer(coord.ServerConfig{
			TTL:            chaosTTL,
			RebalanceEvery: chaosRebalance,
			Weights:        map[int64]int64{1: 4, 2: 3, 3: 2, 4: 1},
			StatePath:      filepath.Join(dir, n+".ckpt"),
			Self:           replicaSetURL(n),
			Peers:          peers,
			LeaderTTL:      foLeaderTTL,
			Planner:        coord.PlannerConfig{ScaleTotal: 64},
			Clock:          clk.Now,
			Transport:      f.net.Transport(n),
			Metrics:        reg,
			Fleet:          stack,
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatalf("NewServer(%s): %v", n, err)
		}
		f.net.Host(n, srv)
		f.srvs[n] = srv
		f.regs[n] = reg
		f.stacks[n] = stack
		f.alive[n] = true
	}

	for i := 1; i <= 4; i++ {
		name := fmt.Sprintf("s%d", i)
		sh := &simShard{name: name, consumed: make(map[int64]float64), alive: true}
		sh.fs = osproc.NewFaultSys()
		sh.fs.SharedCPU = true
		var tasks []osproc.Task
		for j, p := range principalLayout[name] {
			pid := 100*i + j
			sh.fs.AddProc(osproc.FaultProc{PID: pid, Start: uint64(pid)})
			tasks = append(tasks, osproc.Task{ID: core.TaskID(p), Share: 8, PIDs: []int{pid}})
		}
		r, err := osproc.NewRunner(osproc.Config{
			Quantum: chaosQ,
			Sys:     sh.fs,
			OnCycle: func(rec core.CycleRecord) {
				sh.mu.Lock()
				for _, ct := range rec.Tasks {
					sh.consumed[int64(ct.ID)] += ct.Consumed.Seconds()
				}
				sh.cycles++
				sh.mu.Unlock()
			},
		}, tasks)
		if err != nil {
			t.Fatalf("shard %s runner: %v", name, err)
		}
		sh.r = r
		sh.tracer = fleetobs.NewTracer(fleetobs.TracerConfig{Node: name, Now: clk.Now})
		agent, err := coord.NewAgent(coord.AgentConfig{
			URLs:      urls,
			Shard:     name,
			Tasks:     sh.tasks,
			Gauges:    sh.gauges,
			Apply:     sh.apply,
			Period:    chaosPeriod,
			Clock:     clk.Now,
			Transport: f.net.Transport(name),
			Tracer:    sh.tracer,
			Logf:      t.Logf,
		})
		if err != nil {
			t.Fatalf("shard %s agent: %v", name, err)
		}
		sh.agent = agent
		sh.nextAgent = clk.Now()
		f.shards = append(f.shards, sh)
	}
	return f
}

// run advances the simulation by d in quantum-sized grid steps.
func (f *rfleet) run(d time.Duration) {
	steps := int(d / chaosQ)
	for i := 0; i < steps; i++ {
		f.clk.Advance(chaosQ)
		for _, sh := range f.shards {
			if !sh.alive {
				continue
			}
			sh.fs.Advance(chaosQ)
			sh.r.Step()
		}
		now := f.clk.Now()
		for _, n := range foReplicas {
			if f.alive[n] {
				f.srvs[n].Tick(now)
			}
		}
		now = f.clk.Now()
		for _, sh := range f.shards {
			if !sh.alive || now.Before(sh.nextAgent) {
				continue
			}
			delay := sh.agent.Step()
			if delay < chaosQ {
				delay = chaosQ
			}
			sh.nextAgent = f.clk.Now().Add(delay)
		}
	}
}

// kill takes a replica down: host refused, ticks stop.
func (f *rfleet) kill(name string) {
	f.net.Kill(name)
	f.alive[name] = false
}

// leader returns the single live replica reporting leadership, failing
// the test if there is none or more than one.
func (f *rfleet) leader(phase string) string {
	f.t.Helper()
	var leaders []string
	for _, n := range foReplicas {
		if f.alive[n] && f.srvs[n].Status().Role == "leader" {
			leaders = append(leaders, n)
		}
	}
	if len(leaders) != 1 {
		f.t.Fatalf("%s: leaders = %v, want exactly one", phase, leaders)
	}
	return leaders[0]
}

// counterMetric reads one counter/gauge value from a replica's registry.
func (f *rfleet) counterMetric(name, metric string) float64 {
	f.t.Helper()
	var buf bytes.Buffer
	if err := f.regs[name].WritePrometheus(&buf); err != nil {
		f.t.Fatalf("WritePrometheus(%s): %v", name, err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == metric {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				f.t.Fatalf("parse %s on %s: %v", metric, name, err)
			}
			return v
		}
	}
	f.t.Fatalf("replica %s exports no metric %s", name, metric)
	return 0
}

func (f *rfleet) assertEpochsMonotonic() {
	f.t.Helper()
	for _, sh := range f.shards {
		sh.mu.Lock()
		for i := 1; i < len(sh.applied); i++ {
			if sh.applied[i] <= sh.applied[i-1] {
				f.t.Errorf("shard %s applied non-increasing epochs: %v", sh.name, sh.applied)
				break
			}
		}
		sh.mu.Unlock()
	}
}

func TestChaosFailover(t *testing.T) {
	f := newReplicatedFleet(t)

	// Phase 1 — cold start: c1 (rank 0) elects itself at term 1, shards
	// find the leader through not-leader redirects, the fleet converges.
	f.run(4 * time.Second)
	if lead := f.leader("converge"); lead != "c1" {
		t.Fatalf("converge: leader = %s, want c1 (rank order)", lead)
	}
	if st := f.srvs["c1"].Status(); st.Term != 1 {
		t.Fatalf("converge: term = %d, want 1", st.Term)
	}
	if f.srvs["c1"].Epoch() == 0 {
		t.Fatal("converge: no epoch committed")
	}
	for _, sh := range f.shards {
		st := sh.agent.Status()
		if !st.Attached || st.DegradedStatic {
			t.Fatalf("converge: shard %s link unhealthy: %+v", sh.name, st)
		}
		if st.Term != 1 {
			t.Fatalf("converge: shard %s applied term %d, want 1", sh.name, st.Term)
		}
	}
	epochP1 := f.srvs["c1"].Epoch()
	t.Logf("converged under c1: epoch=%d rms=%.3f", epochP1, f.srvs["c1"].GlobalRMS())

	// Phase 2 — partition the leader from everything: standbys and
	// shards. c2 (next rank) elects itself at term 2 from its replica;
	// the shards rotate onto it and their heartbeats fast-forward its
	// epoch past any replication lag. c1, hearing no higher term, keeps
	// believing it leads — split-brain in progress.
	f.net.Isolate("c1", "c2", "c3", "s1", "s2", "s3", "s4")
	f.run(2 * time.Second)
	if st := f.srvs["c2"].Status(); st.Role != "leader" || st.Term != 2 {
		t.Fatalf("partition: c2 role=%s term=%d, want leader at term 2", st.Role, st.Term)
	}
	if f.srvs["c1"].Status().Role != "leader" {
		t.Fatal("partition: isolated c1 should still believe it leads")
	}
	for _, sh := range f.shards {
		st := sh.agent.Status()
		if !st.Attached || st.Coordinator != replicaSetURL("c2") {
			t.Fatalf("partition: shard %s not on the new leader: %+v", sh.name, st)
		}
	}
	if got := f.srvs["c2"].Epoch(); got < epochP1 {
		t.Fatalf("partition: c2 at epoch %d behind the fleet's %d — heartbeat fast-forward failed", got, epochP1)
	}

	// Phase 2b — live weight reconfiguration on the new leader: invert
	// the table, which must commit an epoch on c2 and re-steer the fleet.
	wres, err := f.srvs["c2"].SetWeights([]coord.TaskShare{
		{ID: 1, Share: 1}, {ID: 2, Share: 2}, {ID: 3, Share: 3}, {ID: 4, Share: 4},
	})
	if err != nil {
		t.Fatalf("SetWeights on c2: %v", err)
	}
	if wres.Term != 2 {
		t.Fatalf("weights committed at term %d, want 2", wres.Term)
	}
	f.run(2 * time.Second)
	for _, sh := range f.shards {
		if st := sh.agent.Status(); st.Term != 2 {
			t.Fatalf("weights: shard %s applied term %d, want 2: %+v", sh.name, st.Term, st)
		}
	}

	// Phase 3 — kill c2 and heal only the shards' path back to c1 (c1
	// stays cut off from c3, so it cannot learn of its deposition from a
	// peer). The agents walk their replica lists back onto c1, which
	// still publishes at term 1: those publishes must be fenced at the
	// shards, and the first term-2 heartbeat must depose c1, which then
	// re-elects at term 3 (it saw term 2 in that heartbeat) and resumes.
	f.kill("c2")
	f.net.Rejoin("c1", "s1", "s2", "s3", "s4")
	f.run(2500 * time.Millisecond)
	var fenced int64
	for _, sh := range f.shards {
		fenced += sh.agent.Status().StaleTermRejected
	}
	if fenced == 0 {
		t.Fatal("failback: no shard fenced the deposed leader's term-1 publish")
	}
	if got := f.counterMetric("c1", "alps_coord_stepdowns_total"); got < 1 {
		t.Fatalf("failback: c1 stepdowns = %v, want >= 1", got)
	}
	if st := f.srvs["c1"].Status(); st.Role != "leader" || st.Term < 3 {
		t.Fatalf("failback: c1 role=%s term=%d, want re-elected leader at term >= 3", st.Role, st.Term)
	}

	// Phase 4 — heal the last partition. c3 (which self-elected in its
	// own island, carrying c2's replicated state) loses the equal-term
	// tiebreak to c1; one leader remains and every shard re-attaches.
	f.net.Rejoin("c1", "c3")
	f.run(1 * time.Second)
	lead := f.leader("heal")
	if lead != "c1" {
		t.Fatalf("heal: leader = %s, want c1 (lower URL wins the equal-term tiebreak)", lead)
	}

	// Walk the fleet back into the deadband, sampling the leader's global
	// RMS each rebalance round. The runners' SIGSTOP duty-cycle aliases
	// against the 200ms measurement window, so the instantaneous RMS
	// wobbles even at steady state — assert the first touch of the bound
	// within the same round budget the robustness bench gates (24), not
	// the value at an arbitrary end time.
	healEpoch := f.srvs[lead].Epoch()
	rounds := -1
	var rms float64
	for i := 0; i < 40; i++ {
		f.run(chaosRebalance)
		if rms = f.srvs[lead].GlobalRMS(); rms >= 0 && rms <= 0.5 {
			rounds = int(f.srvs[lead].Epoch() - healEpoch)
			break
		}
	}
	if rounds < 0 {
		t.Fatalf("final: fleet never re-entered the deadband after failover (rms=%.3f)", rms)
	}
	if rounds > 24 {
		t.Fatalf("final: %d rounds back to deadband after failover, gate is 24", rounds)
	}
	for _, sh := range f.shards {
		st := sh.agent.Status()
		if !st.Attached || st.DegradedStatic {
			t.Fatalf("heal: shard %s link unhealthy: %+v", sh.name, st)
		}
		if st.Coordinator != replicaSetURL(lead) {
			t.Fatalf("heal: shard %s on %s, want leader %s", sh.name, st.Coordinator, lead)
		}
		if st.Term < 3 {
			t.Fatalf("heal: shard %s applied term %d, want >= 3", sh.name, st.Term)
		}
	}
	for _, n := range foReplicas {
		if !f.alive[n] || n == lead {
			continue
		}
		if st := f.srvs[n].Status(); st.Role != "follower" {
			t.Fatalf("heal: replica %s role=%s, want follower", n, st.Role)
		}
	}
	if st := f.srvs[lead].Status(); st.Role != "leader" || st.Term != 3 || st.Leader != replicaSetURL(lead) {
		t.Fatalf("final: leader status disagrees with the replica set: leader=%q term=%d role=%s",
			st.Leader, st.Term, st.Role)
	}

	// Invariants over the whole script.
	f.assertEpochsMonotonic()
	for _, sh := range f.shards {
		sh.r.Release()
		if stopped := sh.fs.StoppedPIDs(); len(stopped) != 0 {
			t.Errorf("shard %s left PIDs stopped: %v", sh.name, stopped)
		}
	}
	t.Logf("final: leader=%s term=%d epoch=%d rounds-to-deadband=%d rms=%.3f fenced=%d",
		lead, f.srvs[lead].Status().Term, f.srvs[lead].Epoch(), rounds, rms, fenced)

	// The leader's Tick drove its retained history on the virtual clock:
	// the fleet share-error estimator gauges must be in the timeline, and —
	// when the chaos-failover CI job asks via ALPS_TIMELINE_OUT — the
	// whole /fleet/timeline document is written out as the run artifact.
	tl := f.stacks[lead].History.Snapshot()
	if tl.Samples == 0 {
		t.Fatal("final: leader retained no timeline samples")
	}
	series := make(map[string]int)
	for _, sr := range tl.Series {
		series[sr.Name] = len(sr.Points)
	}
	for _, name := range []string{
		"alps_coord_global_rms_share_error",
		"alps_fleet_global_rms_share_error_ewma",
		"alps_fleet_rms_beat_ratio",
	} {
		if series[name] == 0 {
			t.Errorf("final: timeline missing series %s (have %v)", name, series)
		}
	}
	if out := os.Getenv("ALPS_TIMELINE_OUT"); out != "" {
		data, err := json.MarshalIndent(tl, "", " ")
		if err != nil {
			t.Fatalf("marshal timeline capture: %v", err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			t.Fatalf("write timeline capture: %v", err)
		}
		t.Logf("final: wrote /fleet/timeline capture to %s (%d series, %d samples)",
			out, len(tl.Series), tl.Samples)
	}
}
