package coord_test

// The fleet chaos end-to-end test: four real osproc.Runners (on
// deterministic FaultSys process tables) attached through real
// coord.Agents to a real coord.Server, all wired over a coordsim
// in-memory network on one virtual clock. The script kills the
// coordinator mid-rebalance, partitions a shard, kills a shard, and
// heals — asserting throughout that every surviving shard keeps
// completing allocation cycles, that assignment epochs are strictly
// monotonic on every shard (duplicated deliveries included), that the
// coordinator restart resumes from its checkpoint, that the restarted
// coordinator's Tick drives its retained fleet timeline, that every
// epoch a shard applied was committed by a coordinator, and that in the
// end the global share error is bounded and no process is left
// SIGSTOPped.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"alps/internal/coord"
	"alps/internal/coord/coordsim"
	"alps/internal/core"
	"alps/internal/obs"
	"alps/internal/osproc"
	"alps/internal/tshist"
)

const (
	chaosQ         = 10 * time.Millisecond
	chaosTTL       = 300 * time.Millisecond
	chaosRebalance = 200 * time.Millisecond
	chaosPeriod    = 50 * time.Millisecond
)

// simShard is one simulated cmd/alps shard: a runner over a fault
// process table, the consumption accumulator, and the coordinator link.
type simShard struct {
	name  string
	fs    *osproc.FaultSys
	r     *osproc.Runner
	agent *coord.Agent

	mu       sync.Mutex
	consumed map[int64]float64 // cumulative seconds per principal
	cycles   int64
	applied  []uint64 // every epoch Apply committed, in order

	alive     bool
	nextAgent time.Time
}

func (s *simShard) gauges() coord.ShardGauges {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make(map[int64]float64, len(s.consumed))
	for p, c := range s.consumed {
		cp[p] = c
	}
	return coord.ShardGauges{Consumed: cp, Cycles: s.cycles}
}

func (s *simShard) tasks() []coord.TaskShare {
	var out []coord.TaskShare
	for _, tr := range s.r.State().Tasks {
		out = append(out, coord.TaskShare{ID: int64(tr.ID), Share: tr.Share})
	}
	return out
}

func (s *simShard) apply(a coord.Assignment) error {
	rc := osproc.Reconfig{SetShares: make(map[core.TaskID]int64, len(a.Tasks))}
	for _, ts := range a.Tasks {
		rc.SetShares[core.TaskID(ts.ID)] = ts.Share
	}
	if err := s.r.Reconfigure(rc); err != nil {
		return err
	}
	s.mu.Lock()
	s.applied = append(s.applied, a.Epoch)
	s.mu.Unlock()
	return nil
}

// fleet is the whole simulation: clock, network, coordinator, shards.
type fleet struct {
	t          *testing.T
	clk        *coordsim.Clock
	net        *coordsim.Net
	srv        *coord.Server
	srvCfg     coord.ServerConfig
	coordAlive bool
	shards     []*simShard
	// hist is the running coordinator incarnation's retained timeline (a
	// crash restart gets a fresh one, like a real restart would).
	hist *tshist.Store
	// committed lists every epoch any coordinator incarnation committed,
	// read from its "committed epoch N" log line; the running incarnation
	// logged committed[since:].
	committed []uint64
	since     int
}

// principalLayout maps each shard to its principals; every principal is
// hosted on two shards, so no single shard death removes one.
var principalLayout = map[string][]int64{
	"s1": {1, 2},
	"s2": {1, 3},
	"s3": {2, 4},
	"s4": {3, 4},
}

func newFleet(t *testing.T) *fleet {
	t.Helper()
	clk := coordsim.NewClock()
	f := &fleet{
		t:   t,
		clk: clk,
		net: coordsim.NewNet(),
		srvCfg: coord.ServerConfig{
			TTL:            chaosTTL,
			RebalanceEvery: chaosRebalance,
			Weights:        map[int64]int64{1: 4, 2: 3, 3: 2, 4: 1},
			StatePath:      filepath.Join(t.TempDir(), "coord.ckpt"),
			// Small ScaleTotal keeps post-rebalance cycle lengths
			// (sum-of-shares quanta) short in virtual time.
			Planner: coord.PlannerConfig{ScaleTotal: 64},
			Clock:   clk.Now,
		},
		coordAlive: true,
	}
	f.startCoordinator()

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
		agent, err := coord.NewAgent(coord.AgentConfig{
			URL:       "http://coord",
			Shard:     name,
			Tasks:     sh.tasks,
			Gauges:    sh.gauges,
			Apply:     sh.apply,
			Period:    chaosPeriod,
			Clock:     clk.Now,
			Transport: f.net.Transport(name),
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

// startCoordinator (re)builds the coordinator from its checkpoint and
// plugs it into the network — both initial start and crash restart.
// Server and history share one registry, as in "alps coord", so the
// retained timeline carries the server's gauges.
func (f *fleet) startCoordinator() {
	reg := obs.NewRegistry()
	// One timeline point per rebalance round.
	f.hist = tshist.New(tshist.Config{Source: reg, Every: chaosRebalance})
	f.srvCfg.Metrics = reg
	f.srvCfg.History = f.hist
	f.srvCfg.Logf = f.coordLog
	f.since = len(f.committed)
	srv, err := coord.NewServer(f.srvCfg)
	if err != nil {
		f.t.Fatalf("NewServer: %v", err)
	}
	f.srv = srv
	f.net.Host("coord", srv)
	f.net.Revive("coord")
	f.coordAlive = true
}

// coordLog is every coordinator incarnation's log: it records each
// committed epoch from the line an operator reads, then passes the line
// to the test log.
func (f *fleet) coordLog(format string, args ...any) {
	if format == "coord: committed epoch %d (rms=%.3f, %d shards)" {
		f.committed = append(f.committed, args[0].(uint64))
	}
	f.t.Logf(format, args...)
}

func (f *fleet) killCoordinator() {
	f.net.Kill("coord")
	f.coordAlive = false
}

// run advances the whole simulation by d in quantum-sized grid steps:
// clocks move in lockstep, runners step every quantum, the coordinator
// ticks (when alive), agents step when their own schedule says so.
func (f *fleet) run(d time.Duration) {
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
		if f.coordAlive {
			f.srv.Tick(f.clk.Now())
		}
		now := f.clk.Now()
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

// cycleCounts snapshots completed cycles per live shard.
func (f *fleet) cycleCounts() map[string]int64 {
	out := make(map[string]int64)
	for _, sh := range f.shards {
		if sh.alive {
			sh.mu.Lock()
			out[sh.name] = sh.cycles
			sh.mu.Unlock()
		}
	}
	return out
}

// assertCyclesAdvanced: every live shard completed at least one more
// allocation cycle since the snapshot — scheduling never stalled.
func (f *fleet) assertCyclesAdvanced(phase string, before map[string]int64) {
	f.t.Helper()
	after := f.cycleCounts()
	for name, b := range before {
		if after[name] <= b {
			f.t.Errorf("%s: shard %s stalled (cycles %d -> %d)", phase, name, b, after[name])
		}
	}
}

// assertEpochsMonotonic: every epoch a shard ever applied is strictly
// greater than the one before — duplicates, partitions and coordinator
// restarts never rolled shares backward.
func (f *fleet) assertEpochsMonotonic() {
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

// assertEpochsCommitted checks epoch propagation directly: every epoch
// a shard applied was committed by some coordinator incarnation, and
// every live shard ends on the last committed epoch. It also checks the
// partition story: healed s2's applied sequence jumps by more than one
// where it fast-forwarded past the epochs it missed.
func (f *fleet) assertEpochsCommitted() {
	t := f.t
	t.Helper()
	if len(f.committed) == 0 {
		t.Fatal("no coordinator logged a committed epoch")
	}
	committed := make(map[uint64]bool, len(f.committed))
	for _, e := range f.committed {
		committed[e] = true
	}
	last := f.committed[len(f.committed)-1]
	for _, sh := range f.shards {
		sh.mu.Lock()
		applied := append([]uint64(nil), sh.applied...)
		sh.mu.Unlock()
		for _, e := range applied {
			if !committed[e] {
				t.Errorf("shard %s applied epoch %d, which no coordinator committed (committed %v)",
					sh.name, e, f.committed)
			}
		}
		if sh.alive && (len(applied) == 0 || applied[len(applied)-1] != last) {
			t.Errorf("live shard %s ends on epochs %v, want the last committed epoch %d", sh.name, applied, last)
		}
	}

	s2 := f.shards[1]
	s2.mu.Lock()
	applied := append([]uint64(nil), s2.applied...)
	s2.mu.Unlock()
	jumped := false
	for i := 1; i < len(applied); i++ {
		if applied[i] > applied[i-1]+1 {
			jumped = true
		}
	}
	if !jumped {
		t.Errorf("healed s2 shows no epoch fast-forward in its applied sequence: %v", applied)
	}
	t.Logf("epochs: %d committed, last %d", len(f.committed), last)
}

// assertFleetStatus checks the coordinator's fleet estimators:
// propagation latencies were observed and the windowed global share
// error is bounded. Its /metrics count the rounds the running
// incarnation logged as commits and end on the last committed epoch.
func (f *fleet) assertFleetStatus() {
	t := f.t
	t.Helper()
	var buf bytes.Buffer
	if err := f.srvCfg.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		fmt.Sprintf("alps_coord_rebalances_total %d", len(f.committed)-f.since),
		fmt.Sprintf("alps_coord_epoch %d", f.committed[len(f.committed)-1]),
	} {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Errorf("coordinator /metrics missing %q", line)
		}
	}
	st := f.srv.Status()
	if st.PropagationCount == 0 {
		t.Error("coordinator observed no epoch propagation latencies")
	}
	if st.GlobalRMSWindowed < 0 || st.GlobalRMSWindowed > 0.5 {
		t.Errorf("windowed global RMS %.3f out of bounds", st.GlobalRMSWindowed)
	}
	t.Logf("fleet status: propagation_count=%d global_rms=%.3f", st.PropagationCount, st.GlobalRMSWindowed)
}

// assertTimeline checks that the restarted coordinator's Tick drove its
// retained history on the virtual clock: the fleet share-error gauges
// are in its timeline. When ALPS_TIMELINE_OUT names a file (make
// chaos-fleet and CI's race step set it), the whole /fleet/timeline
// document is written there as the run artifact.
func (f *fleet) assertTimeline() {
	t := f.t
	t.Helper()
	tl := f.hist.Snapshot()
	if tl.Samples == 0 {
		t.Fatal("timeline: the coordinator retained no samples")
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
			t.Errorf("timeline: missing series %s (have %v)", name, series)
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
		t.Logf("timeline: wrote /fleet/timeline capture to %s (%d series, %d samples)",
			out, len(tl.Series), tl.Samples)
	}
}

func TestChaosFleet(t *testing.T) {
	f := newFleet(t)

	// Phase 1 — convergence, with a few duplicated deliveries thrown at
	// the coordinator to prove assignment application is idempotent.
	f.net.Duplicate("coord", 5)
	before := f.cycleCounts()
	f.run(4 * time.Second)
	f.assertCyclesAdvanced("converge", before)
	for _, sh := range f.shards {
		st := sh.agent.Status()
		if !st.Attached || st.DegradedStatic {
			t.Fatalf("converge: shard %s link unhealthy: %+v", sh.name, st)
		}
	}
	if f.srv.Epoch() == 0 {
		t.Fatal("converge: coordinator never committed an epoch")
	}
	rms := f.srv.GlobalRMS()
	if rms < 0 || rms > 0.5 {
		t.Fatalf("converge: global RMS share error %.3f out of bounds", rms)
	}
	t.Logf("converged: epoch=%d global_rms=%.3f duplicated=%d", f.srv.Epoch(), rms, f.net.Duplicated)

	// Phase 2 — partition shard s2 from the coordinator. Its lease
	// expires, the coordinator rebalances the survivors, s2 itself keeps
	// scheduling on its last shares and reports degraded-to-static.
	s2 := f.shards[1]
	f.net.Partition("s2", "coord")
	before = f.cycleCounts()
	epochBefore := f.srv.Epoch()
	// Long enough for several survivor-only epochs to commit, so the
	// healed s2's applied sequence shows a genuine fast-forward gap.
	f.run(2500 * time.Millisecond)
	f.assertCyclesAdvanced("partition", before)
	if st := s2.agent.Status(); !st.DegradedStatic {
		t.Fatalf("partition: s2 not degraded-to-static: %+v", st)
	}
	for _, row := range f.srv.Status().Shards {
		if row.Shard == "s2" {
			t.Fatal("partition: s2 still holds a lease after TTL")
		}
	}
	if f.srv.Epoch() <= epochBefore {
		t.Fatalf("partition: lease expiry did not force a rebalance (epoch %d)", f.srv.Epoch())
	}

	// Phase 3 — SIGKILL the coordinator mid-rebalance: the expiry-forced
	// epoch above is committed (and checkpointed) but not every survivor
	// has pulled it yet. The fleet must keep scheduling on static shares.
	f.killCoordinator()
	ckptEpoch := f.srv.Epoch()
	before = f.cycleCounts()
	f.run(1500 * time.Millisecond)
	f.assertCyclesAdvanced("coordinator down", before)
	for _, sh := range f.shards {
		if !sh.alive {
			continue
		}
		if st := sh.agent.Status(); !st.DegradedStatic {
			t.Fatalf("coordinator down: shard %s not degraded-to-static: %+v", sh.name, st)
		}
	}

	// Phase 4 — restart the coordinator from its checkpoint and heal the
	// partition. Epoch numbering resumes at or past the crash point;
	// every shard re-registers and re-attaches.
	f.startCoordinator()
	f.net.Heal("s2", "coord")
	if got := f.srv.Epoch(); got < ckptEpoch {
		t.Fatalf("restart: restored epoch %d rolled back past %d", got, ckptEpoch)
	}
	before = f.cycleCounts()
	f.run(3 * time.Second)
	f.assertCyclesAdvanced("heal", before)
	for _, sh := range f.shards {
		st := sh.agent.Status()
		if !st.Attached || st.DegradedStatic {
			t.Fatalf("heal: shard %s did not re-attach: %+v", sh.name, st)
		}
	}

	// Phase 5 — kill shard s4 outright (processes released, agent gone).
	// Its lease expires and the remaining fleet reconverges.
	s4 := f.shards[3]
	s4.alive = false
	s4.r.Release()
	epochBefore = f.srv.Epoch()
	f.run(2 * time.Second)
	for _, row := range f.srv.Status().Shards {
		if row.Shard == "s4" {
			t.Fatal("kill shard: s4 still holds a lease after TTL")
		}
	}
	if f.srv.Epoch() <= epochBefore {
		t.Fatalf("kill shard: death did not force a rebalance (epoch %d)", f.srv.Epoch())
	}
	f.run(2 * time.Second)
	if rms := f.srv.GlobalRMS(); rms < 0 || rms > 0.5 {
		t.Fatalf("final: global RMS share error %.3f out of bounds", rms)
	}

	// Invariants over the whole script.
	f.assertEpochsMonotonic()
	f.assertEpochsCommitted()
	f.assertFleetStatus()
	f.assertTimeline()
	if f.net.Duplicated == 0 {
		t.Error("duplicate injection never fired — idempotence untested")
	}
	for _, sh := range f.shards {
		if sh.alive {
			sh.r.Release()
		}
		if stopped := sh.fs.StoppedPIDs(); len(stopped) != 0 {
			t.Errorf("shard %s left PIDs stopped: %v", sh.name, stopped)
		}
	}
	t.Logf("final: epoch=%d global_rms=%.3f", f.srv.Epoch(), f.srv.GlobalRMS())
}
