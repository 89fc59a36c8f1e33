package coord

import (
	"testing"
	"time"

	"alps/internal/coord/coordsim"
)

// newFailoverAgent builds an agent aimed at a coordsim-hosted replica
// set, talking through the simulated network like any other host.
func newFailoverAgent(t *testing.T, rs *replicaSet, shard *testShard, name string, urls ...string) *Agent {
	t.Helper()
	a, err := NewAgent(AgentConfig{
		URLs:      urls,
		Shard:     name,
		Tasks:     shard.tasks,
		Gauges:    func() ShardGauges { return ShardGauges{} },
		Apply:     shard.apply,
		Period:    100 * time.Millisecond,
		Clock:     rs.clk.Now,
		Transport: rs.net.Transport(name),
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	return a
}

// TestAgentNotLeaderRedirectFollowsHint: an agent aimed at a follower
// gets a 409 not-leader with a leader hint, rotates straight to the
// hinted replica and registers there — no failure counted (a redirect
// is routing, not an outage).
func TestAgentNotLeaderRedirectFollowsHint(t *testing.T) {
	rs := newReplicaSet(t, "r1", "r2")
	rs.run(1 * time.Second)
	if rs.srvs["r1"].Status().Role != "leader" {
		t.Fatal("r1 did not take leadership")
	}

	shard := newTestShard(map[int64]int64{1: 100, 2: 100})
	// Deliberately aimed at the follower first.
	a := newFailoverAgent(t, rs, shard, "s1", replicaURL("r2"), replicaURL("r1"))

	if d := a.Step(); d <= 0 {
		t.Fatalf("redirect delay = %v, want positive jittered delay", d)
	}
	st := a.Status()
	if st.Attached {
		t.Fatalf("attached through a follower: %+v", st)
	}
	if st.Redirects != 1 || st.Failures != 0 {
		t.Fatalf("redirect miscounted: %+v", st)
	}
	if st.Coordinator != replicaURL("r1") {
		t.Fatalf("after redirect aimed at %q, want the hinted leader %q", st.Coordinator, replicaURL("r1"))
	}

	a.Step()
	st = a.Status()
	if !st.Attached || st.Coordinator != replicaURL("r1") {
		t.Fatalf("did not register on the hinted leader: %+v", st)
	}
	if got := rs.srvs["r2"].notLeaderRejects.get(); got != 1 {
		t.Fatalf("follower notLeaderRejects = %d, want 1", got)
	}
}

// TestAgentFailsOverOnLeaderDeath: the leader dies after committing an
// epoch; the agent rotates to the standby (which elected itself from
// its replica), re-registers, and keeps its applied epoch — a few RPCs,
// no operator, no failure streak left behind.
func TestAgentFailsOverOnLeaderDeath(t *testing.T) {
	rs := newReplicaSet(t, "r1", "r2")
	rs.run(1 * time.Second)
	lead := rs.srvs["r1"]
	if lead.Status().Role != "leader" {
		t.Fatal("r1 did not take leadership")
	}

	shard := newTestShard(map[int64]int64{1: 100, 2: 100})
	a := newFailoverAgent(t, rs, shard, "s1", replicaURL("r1"), replicaURL("r2"))
	a.Step() // register on r1
	if st := a.Status(); !st.Attached {
		t.Fatalf("did not attach to the leader: %+v", st)
	}

	// Commit an epoch (weights 3:1, even window) and let the agent pull
	// it; standbys replicate the commit.
	lead.mu.Lock()
	rec := lead.shards["s1"]
	rec.window[1] += 0.5
	rec.window[2] += 0.5
	lead.mu.Unlock()
	rs.run(600 * time.Millisecond)
	a.Step()
	st := a.Status()
	if st.Epoch == 0 || st.Term != 1 {
		t.Fatalf("agent did not apply the leader's commit: %+v", st)
	}
	epoch := st.Epoch
	rs.run(200 * time.Millisecond) // replication pull
	if got := rs.srvs["r2"].Epoch(); got != epoch {
		t.Fatalf("standby replicated epoch %d, want %d", got, epoch)
	}

	// Leader dies; standby takes over at term 2 from its own replica.
	rs.stop("r1")
	rs.run(2 * time.Second)
	if st := rs.srvs["r2"].Status(); st.Role != "leader" || st.Term != 2 {
		t.Fatalf("r2 role=%s term=%d, want leader at term 2", st.Role, st.Term)
	}

	a.Step() // heartbeat to dead r1: net error, rotate to r2
	a.Step() // heartbeat to r2: unknown lease (404), detach
	a.Step() // register on r2
	st = a.Status()
	if !st.Attached || st.Coordinator != replicaURL("r2") {
		t.Fatalf("did not fail over to the standby: %+v", st)
	}
	if st.Epoch != epoch {
		t.Fatalf("failover moved the applied epoch %d -> %d", epoch, st.Epoch)
	}
	if st.Failures != 0 {
		t.Fatalf("failover left a failure streak: %+v", st)
	}
}

// TestAgentTermFence: an assignment carrying a term below the last
// applied one is a deposed leader's publish — discarded whatever epoch
// it claims, while term 0 (standalone coordinator) still passes.
func TestAgentTermFence(t *testing.T) {
	clk := coordsim.NewClock()
	shard := newTestShard(map[int64]int64{1: 10})
	a := newTestAgent(t, clk, &handlerTransport{}, shard, "s1")

	a.maybeApply(Assignment{Epoch: 5, Term: 2, Tasks: []TaskShare{{ID: 1, Share: 77}}})
	if st := a.Status(); st.Epoch != 5 || st.Term != 2 {
		t.Fatalf("after term-2 apply: %+v", st)
	}
	// Deposed leader: term 1 beneath the applied term 2, epoch be damned.
	a.maybeApply(Assignment{Epoch: 9, Term: 1, Tasks: []TaskShare{{ID: 1, Share: 1}}})
	st := a.Status()
	if st.Epoch != 5 || st.StaleTermRejected != 1 {
		t.Fatalf("stale-term assignment not fenced: %+v", st)
	}
	shard.mu.Lock()
	if shard.shares[1] != 77 {
		shard.mu.Unlock()
		t.Fatalf("fenced assignment moved shares: %v", shard.shares)
	}
	shard.mu.Unlock()
	// Term 0 is the standalone coordinator's wire format: not fenced.
	a.maybeApply(Assignment{Epoch: 6, Term: 0, Tasks: []TaskShare{{ID: 1, Share: 42}}})
	if st := a.Status(); st.Epoch != 6 || st.Term != 2 {
		t.Fatalf("term-0 compatibility apply: %+v", st)
	}
}
