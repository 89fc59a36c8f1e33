package coord

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"alps/internal/coord/coordsim"
	"alps/internal/fleetobs"
	"alps/internal/obs"
)

// replicaSet hosts a coordinator replica set on coordsim's in-memory
// net: each server is a named host, replicas reach each other through
// the simulated transport, and the test advances one shared virtual
// clock while ticking every live server. Each replica's server and
// fleet stack share one registry, as in "alps coord".
type replicaSet struct {
	t     *testing.T
	clk   *coordsim.Clock
	net   *coordsim.Net
	names []string
	srvs  map[string]*Server
	regs  map[string]*obs.Registry
	live  map[string]bool
}

func replicaURL(name string) string { return "http://" + name }

func newReplicaSet(t *testing.T, names ...string) *replicaSet {
	t.Helper()
	rs := &replicaSet{
		t:     t,
		clk:   coordsim.NewClock(),
		net:   nil,
		names: names,
		srvs:  make(map[string]*Server),
		regs:  make(map[string]*obs.Registry),
		live:  make(map[string]bool),
	}
	rs.net = coordsim.NewNet()
	dir := t.TempDir()
	for _, n := range names {
		var peers []string
		for _, o := range names {
			if o != n {
				peers = append(peers, replicaURL(o))
			}
		}
		reg := obs.NewRegistry()
		s, err := NewServer(ServerConfig{
			TTL:            time.Second,
			RebalanceEvery: 500 * time.Millisecond,
			Weights:        map[int64]int64{1: 3, 2: 1},
			StatePath:      filepath.Join(dir, n+".ckpt"),
			Self:           replicaURL(n),
			Peers:          peers,
			LeaderTTL:      400 * time.Millisecond,
			Clock:          rs.clk.Now,
			Transport:      rs.net.Transport(n),
			Metrics:        reg,
			Fleet:          fleetobs.NewStack(fleetobs.StackConfig{Node: n, Metrics: reg, Now: rs.clk.Now}),
			Logf:           t.Logf,
		})
		if err != nil {
			t.Fatalf("NewServer(%s): %v", n, err)
		}
		rs.net.Host(n, s)
		rs.srvs[n] = s
		rs.regs[n] = reg
		rs.live[n] = true
	}
	return rs
}

// run advances the virtual clock in 50ms steps, ticking every live
// replica at each step (in name order, deterministically).
func (rs *replicaSet) run(d time.Duration) {
	const step = 50 * time.Millisecond
	for elapsed := time.Duration(0); elapsed < d; elapsed += step {
		rs.clk.Advance(step)
		now := rs.clk.Now()
		for _, n := range rs.names {
			if rs.live[n] {
				rs.srvs[n].Tick(now)
			}
		}
	}
}

// stop kills a replica: its host refuses connections and it stops
// ticking (a crashed process, not a partitioned one).
func (rs *replicaSet) stop(name string) {
	rs.live[name] = false
	rs.net.Kill(name)
}

// sharesOf reads a server's committed share vector for one shard.
func sharesOf(s *Server, shard string) map[int64]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int64]int64, len(s.assigned[shard]))
	for p, sh := range s.assigned[shard] {
		out[p] = sh
	}
	return out
}

// TestReplicaElectionRankOrder: in a fresh 3-replica set the
// lowest-ranked replica (r1, by URL sort) elects itself at term 1 after
// LeaderTTL of silence, and the others learn the leader by pulling —
// exactly one election fleet-wide.
func TestReplicaElectionRankOrder(t *testing.T) {
	rs := newReplicaSet(t, "r1", "r2", "r3")
	rs.run(1 * time.Second)

	st := rs.srvs["r1"].Status()
	if st.Role != "leader" || st.Term != 1 {
		t.Fatalf("r1 role=%s term=%d, want leader at term 1", st.Role, st.Term)
	}
	for _, n := range []string{"r2", "r3"} {
		st := rs.srvs[n].Status()
		if st.Role != "follower" {
			t.Fatalf("%s role = %s, want follower", n, st.Role)
		}
		if st.Leader != replicaURL("r1") {
			t.Fatalf("%s leader = %q, want %q", n, st.Leader, replicaURL("r1"))
		}
		if st.Term != 1 {
			t.Fatalf("%s term = %d, want 1 (adopted from leader)", n, st.Term)
		}
		if got := rs.srvs[n].elections.get(); got != 0 {
			t.Fatalf("%s held %d elections, want 0", n, got)
		}
	}
	if got := rs.srvs["r1"].elections.get(); got != 1 {
		t.Fatalf("r1 elections = %d, want 1", got)
	}
}

// TestReplicaFailoverPreservesCommittedState: the leader commits an
// epoch from real shard feedback, standbys replicate it, and when the
// leader dies the next-ranked replica takes over at term+1 *from its
// replica* — a shard re-registering on the new leader gets the

// TestReplicaView: once r1 has won term 1 and committed an epoch, and
// the followers have pulled it, every replica reports the same term and
// leader, lists both peers with their term, epoch and age, and exports
// the view once, as the alps_coord_* gauges on its own registry.
func TestReplicaView(t *testing.T) {
	rs := newReplicaSet(t, "r1", "r2", "r3")
	rs.run(1 * time.Second)
	if _, err := rs.srvs["r1"].SetWeights([]TaskShare{{ID: 1, Share: 1}, {ID: 2, Share: 1}}); err != nil {
		t.Fatalf("SetWeights on r1: %v", err)
	}
	rs.run(1 * time.Second)

	for _, n := range rs.names {
		st := rs.srvs[n].Status()
		if st.Term != 1 || st.Epoch != 1 || st.Leader != replicaURL("r1") {
			t.Errorf("%s: term=%d epoch=%d leader=%q, want 1, 1, %s", n, st.Term, st.Epoch, st.Leader, replicaURL("r1"))
		}
		var peers []string
		for _, r := range st.Replicas {
			peers = append(peers, r.URL)
			if r.Term != 1 || r.Epoch != 1 || r.AgeSec < 0 || r.AgeSec > 0.4 {
				t.Errorf("%s: replica row %+v, want term 1, epoch 1, age within the 0.4s leader TTL", n, r)
			}
		}
		if len(peers) != 2 || strings.Contains(strings.Join(peers, ","), replicaURL(n)) {
			t.Errorf("%s: replica rows %v, want both peers and not itself", n, peers)
		}

		text := scrape(t, rs.regs[n])
		isLeader := "0"
		if n == "r1" {
			isLeader = "1"
		}
		for _, want := range []string{"alps_coord_term 1\n", "alps_coord_is_leader " + isLeader + "\n",
			"alps_coord_replica_lag_epochs 0\n"} {
			if !strings.Contains(text, want) {
				t.Errorf("%s: metrics missing %q", n, strings.TrimSpace(want))
			}
		}
		for _, dup := range []string{"alps_fleet_term", "alps_fleet_is_leader"} {
			if strings.Contains(text, dup) {
				t.Errorf("%s: exports the duplicate family %s", n, dup)
			}
		}
	}
}

// committed shares back, not its registration defaults.
func TestReplicaFailoverPreservesCommittedState(t *testing.T) {
	rs := newReplicaSet(t, "r1", "r2", "r3")
	rs.run(1 * time.Second)
	lead := rs.srvs["r1"]
	if lead.Status().Role != "leader" {
		t.Fatal("r1 did not take leadership")
	}

	// Weights are 3:1 but consumption is even — principal 1 underserved,
	// so the next rebalance must move shares and commit an epoch.
	reg := mustRegister(t, lead, "s1", TaskShare{ID: 1, Share: 100}, TaskShare{ID: 2, Share: 100})
	if reg.Assignment.Term != 1 {
		t.Fatalf("assignment term = %d, want 1", reg.Assignment.Term)
	}
	beat(t, lead, "s1", reg.Lease, 0, map[int64]float64{1: 0.5, 2: 0.5})
	rs.run(600 * time.Millisecond)

	epoch := lead.Epoch()
	if epoch == 0 {
		t.Fatal("leader committed no epoch from the skewed window")
	}
	committed := sharesOf(lead, "s1")
	if committed[1] <= committed[2] {
		t.Fatalf("committed shares %v do not favor the underserved principal", committed)
	}

	// Standbys replicate the commit (term, epoch, shares) within a pull.
	rs.run(200 * time.Millisecond)
	for _, n := range []string{"r2", "r3"} {
		if got := rs.srvs[n].Epoch(); got != epoch {
			t.Fatalf("%s replicated epoch %d, want %d", n, got, epoch)
		}
		if got := sharesOf(rs.srvs[n], "s1"); got[1] != committed[1] || got[2] != committed[2] {
			t.Fatalf("%s replicated shares %v, want %v", n, got, committed)
		}
	}

	// Kill the leader. r2 (rank 1) must elect itself at term 2 with the
	// replicated epoch intact; r3 must follow, not re-elect.
	rs.stop("r1")
	rs.run(2 * time.Second)
	st := rs.srvs["r2"].Status()
	if st.Role != "leader" || st.Term != 2 {
		t.Fatalf("r2 role=%s term=%d after leader death, want leader at term 2", st.Role, st.Term)
	}
	if got := rs.srvs["r2"].Epoch(); got != epoch {
		t.Fatalf("r2 took over at epoch %d, want %d (replicated state)", got, epoch)
	}
	if got := rs.srvs["r3"].elections.get(); got != 0 {
		t.Fatalf("r3 held %d elections, want 0 (r2 outranks it)", got)
	}

	// The shard re-registers on the new leader and resumes its committed
	// slice — the whole point of hot standbys over a stale file.
	reg2 := mustRegister(t, rs.srvs["r2"], "s1", TaskShare{ID: 1, Share: 100}, TaskShare{ID: 2, Share: 100})
	if reg2.Assignment.Term != 2 {
		t.Fatalf("post-failover assignment term = %d, want 2", reg2.Assignment.Term)
	}
	if reg2.Assignment.Epoch != epoch {
		t.Fatalf("post-failover assignment epoch = %d, want %d", reg2.Assignment.Epoch, epoch)
	}
	got := make(map[int64]int64)
	for _, ts := range reg2.Assignment.Tasks {
		got[ts.ID] = ts.Share
	}
	if got[1] != committed[1] || got[2] != committed[2] {
		t.Fatalf("post-failover shares %v, want committed %v", got, committed)
	}
}

// TestDeposedLeaderFencedAndStepsDown: partition the leader away from
// its standbys (split-brain), let a standby elect a higher term, then
// heal. The old leader's replica document is fenced by pullers (lower
// term), and the old leader steps down the moment it probes a peer at
// the higher term — converging on one leader without losing an epoch.
func TestDeposedLeaderFencedAndStepsDown(t *testing.T) {
	rs := newReplicaSet(t, "r1", "r2", "r3")
	rs.run(1 * time.Second)
	if rs.srvs["r1"].Status().Role != "leader" {
		t.Fatal("r1 did not take leadership")
	}

	rs.net.Isolate("r1", "r2", "r3")
	rs.run(2 * time.Second)
	if st := rs.srvs["r2"].Status(); st.Role != "leader" || st.Term != 2 {
		t.Fatalf("r2 role=%s term=%d behind the partition, want leader at term 2", st.Role, st.Term)
	}
	if rs.srvs["r1"].Status().Role != "leader" {
		t.Fatal("r1 should still believe it leads while partitioned (that's the point)")
	}

	rs.net.Rejoin("r1", "r2", "r3")
	// First post-heal pull: r3 (term 2) reads r1's term-1 document and
	// must fence it rather than roll back.
	rs.clk.Advance(100 * time.Millisecond)
	rs.srvs["r3"].Tick(rs.clk.Now())
	if got := rs.srvs["r3"].fencedPulls.get(); got == 0 {
		t.Fatal("r3 adopted (or ignored without fencing) a deposed leader's replica document")
	}

	rs.run(1 * time.Second)
	st := rs.srvs["r1"].Status()
	if st.Role != "follower" {
		t.Fatalf("r1 role = %s after heal, want follower", st.Role)
	}
	if st.Term != 2 {
		t.Fatalf("r1 term = %d after heal, want 2 (adopted)", st.Term)
	}
	if st.Leader != replicaURL("r2") {
		t.Fatalf("r1 leader = %q, want %q", st.Leader, replicaURL("r2"))
	}
	if got := rs.srvs["r1"].stepDowns.get(); got != 1 {
		t.Fatalf("r1 stepDowns = %d, want 1", got)
	}
	if st := rs.srvs["r2"].Status(); st.Role != "leader" || st.Term != 2 {
		t.Fatalf("r2 role=%s term=%d after heal, want leader at term 2", st.Role, st.Term)
	}
}

// TestWeightsUpdateLiveAndRedirected: the leader applies a validated
// weight table with an epoch++ commit and standbys replicate it; a
// follower answers the same POST with 409 + a machine-readable
// not-leader code and a fresh leader hint; a bad table changes nothing.
func TestWeightsUpdateLiveAndRedirected(t *testing.T) {
	rs := newReplicaSet(t, "r1", "r2")
	rs.run(1 * time.Second)
	lead := rs.srvs["r1"]
	if lead.Status().Role != "leader" {
		t.Fatal("r1 did not take leadership")
	}
	epoch0 := lead.Epoch()

	// Validate-all-then-apply: each bad table is rejected wholesale.
	for _, bad := range [][]TaskShare{
		nil,
		{{ID: 1, Share: 0}},
		{{ID: 1, Share: 2}, {ID: 1, Share: 3}},
	} {
		if _, err := lead.SetWeights(bad); err == nil {
			t.Fatalf("SetWeights(%v) accepted an invalid table", bad)
		}
	}
	if got := lead.Epoch(); got != epoch0 {
		t.Fatalf("epoch moved to %d on rejected tables, want %d", got, epoch0)
	}

	resp, err := lead.SetWeights([]TaskShare{{ID: 1, Share: 5}, {ID: 2, Share: 1}})
	if err != nil {
		t.Fatalf("SetWeights: %v", err)
	}
	if resp.Epoch != epoch0+1 || resp.Term != 1 {
		t.Fatalf("weights committed epoch=%d term=%d, want epoch %d term 1", resp.Epoch, resp.Term, epoch0+1)
	}
	if got := lead.Status().Weights[1]; got != 5 {
		t.Fatalf("leader weight[1] = %d, want 5", got)
	}

	// Same POST against the follower: 409, machine-readable, with a hint.
	client := &http.Client{Transport: rs.net.Transport("op")}
	body, _ := json.Marshal(WeightsRequest{Weights: []TaskShare{{ID: 1, Share: 7}}})
	hresp, err := client.Post(replicaURL("r2")+"/coord/v1/weights", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST weights to follower: %v", err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusConflict {
		t.Fatalf("follower weights POST: HTTP %d, want 409", hresp.StatusCode)
	}
	var we wireError
	if err := json.NewDecoder(hresp.Body).Decode(&we); err != nil {
		t.Fatalf("decode follower 409: %v", err)
	}
	if we.Code != codeNotLeader {
		t.Fatalf("follower 409 code = %q, want %q", we.Code, codeNotLeader)
	}
	if we.Leader != replicaURL("r1") {
		t.Fatalf("follower 409 leader hint = %q, want %q", we.Leader, replicaURL("r1"))
	}
	if got := rs.srvs["r2"].notLeaderRejects.get(); got == 0 {
		t.Fatal("follower did not count the not-leader reject")
	}

	// The leader accepts it over HTTP too, and the follower replicates
	// the new table within a pull.
	hresp2, err := client.Post(replicaURL("r1")+"/coord/v1/weights", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST weights to leader: %v", err)
	}
	defer hresp2.Body.Close()
	if hresp2.StatusCode != http.StatusOK {
		t.Fatalf("leader weights POST: HTTP %d, want 200", hresp2.StatusCode)
	}
	var wresp WeightsResponse
	if err := json.NewDecoder(hresp2.Body).Decode(&wresp); err != nil {
		t.Fatalf("decode leader weights response: %v", err)
	}
	if wresp.Epoch != epoch0+2 {
		t.Fatalf("HTTP weights commit epoch = %d, want %d", wresp.Epoch, epoch0+2)
	}
	if got := lead.weightUpdates.get(); got != 2 {
		t.Fatalf("leader weightUpdates = %d, want 2", got)
	}

	rs.run(300 * time.Millisecond)
	fst := rs.srvs["r2"].Status()
	if fst.Weights[1] != 7 {
		t.Fatalf("follower weight[1] = %d after replication, want 7", fst.Weights[1])
	}
	if got := rs.srvs["r2"].Epoch(); got != epoch0+2 {
		t.Fatalf("follower epoch = %d after replication, want %d", got, epoch0+2)
	}
}

// TestHeartbeatHigherTermDeposesLeader: a shard heartbeating with a
// term above this leader's proves a newer leader exists — the replica
// must step down and bounce the shard rather than keep publishing.
func TestHeartbeatHigherTermDeposesLeader(t *testing.T) {
	rs := newReplicaSet(t, "r1", "r2")
	rs.run(1 * time.Second)
	lead := rs.srvs["r1"]
	if lead.Status().Role != "leader" {
		t.Fatal("r1 did not take leadership")
	}

	reg := mustRegister(t, lead, "s1", TaskShare{ID: 1, Share: 100})
	_, err := lead.Heartbeat(HeartbeatRequest{
		Shard: "s1", Lease: reg.Lease, Epoch: reg.Assignment.Epoch, Term: 2,
	})
	if !errors.Is(err, errNotLeader) {
		t.Fatalf("higher-term heartbeat: err = %v, want errNotLeader", err)
	}
	if got := lead.Status().Role; got != "follower" {
		t.Fatalf("role = %s after higher-term heartbeat, want follower", got)
	}
	if got := lead.stepDowns.get(); got != 1 {
		t.Fatalf("stepDowns = %d, want 1", got)
	}
	// Deposed: registration attempts bounce too until a new election.
	if _, err := lead.Register(RegisterRequest{Shard: "s2", Tasks: []TaskShare{{ID: 1, Share: 1}}}); !errors.Is(err, errNotLeader) {
		t.Fatalf("register on deposed leader: err = %v, want errNotLeader", err)
	}
}
