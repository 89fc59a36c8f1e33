package coord

// Coordinator replication: a small replica set (typically 3) where one
// leader owns the fleet and hot standbys shadow its committed state.
//
// The design reuses the machinery the control plane already has rather
// than importing a consensus library. Followers *pull* committed state
// (weight table, per-shard assignments, leases digest, epoch) from the
// leader over GET /coord/v1/replica/state — the same pull-only posture
// shards use — and persist every adopted document via internal/ckpt, so
// a standby that takes over fast-forwards from its own replica instead
// of a stale file. Leadership is a TTL lease: a follower that has not
// seen the leader for LeaderTTL (staggered by its rank in the sorted
// replica set, so the lowest-ranked live replica wins without a vote
// round) elects itself at term maxSeen+1. The monotone term folds into
// the existing (incarnation, epoch) fencing: assignments and replica
// documents carry it, shards reject publishes whose term is below the
// one they last applied, and replicas ignore pulls from a lower-term
// (deposed) leader — split-brain becomes a rejected write, not a
// correctness event. A deposed leader learns of its deposition from a
// peer probe or from a shard heartbeat echoing a higher term, steps
// down, and rejoins as a follower.
//
// Losing the whole replica set is the same failure as losing the single
// coordinator always was: shards keep their last-committed static
// shares and say so in /healthz — availability degrades, correctness
// does not.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"alps/internal/ckpt"
	"alps/internal/fleetobs"
)

// DefaultLeaderTTL is the leadership lease when ServerConfig leaves
// LeaderTTL zero.
const DefaultLeaderTTL = 2 * time.Second

// errNotLeader makes a mutating RPC on a follower (or a freshly deposed
// leader) a distinct, client-actionable failure: re-aim at the leader.
var errNotLeader = errors.New("coord: not the leader")

// replicated reports whether this server runs as part of a replica set.
func (s *Server) replicated() bool { return s.cfg.Self != "" }

// initReplication computes this replica's stable rank and arms the
// replication timers. Called from NewServer; the server starts as a
// follower and must win (or inherit, by silence) the leadership lease
// before it touches the fleet.
func (s *Server) initReplication(now time.Time) {
	all := append([]string{s.cfg.Self}, s.cfg.Peers...)
	sort.Strings(all)
	for i, u := range all {
		if u == s.cfg.Self {
			s.rank = i
			break
		}
	}
	s.leaderSeen = now
	s.nextFollow = now
	s.nextProbe = now
	s.rclient = &http.Client{Timeout: 2 * time.Second, Transport: s.cfg.Transport}
	s.logf("coord: replica %s rank %d in set of %d", s.cfg.Self, s.rank, len(all))
}

// electionTimeoutLocked is how long this replica tolerates leader
// silence before electing itself: one LeaderTTL plus half a LeaderTTL
// per rank, so replicas time out in rank order and simultaneous
// elections are the exception (term fencing makes the residue harmless).
func (s *Server) electionTimeoutLocked() time.Duration {
	return s.cfg.LeaderTTL + time.Duration(s.rank)*s.cfg.LeaderTTL/2
}

// replicaTick runs the role's periodic replication duty — followers
// pull state, the leader probes its peers for a higher term — and
// checks the election timeout.
func (s *Server) replicaTick(now time.Time) {
	s.mu.Lock()
	leading := s.isLeader
	probe := leading && !now.Before(s.nextProbe)
	if probe {
		s.nextProbe = now.Add(s.cfg.LeaderTTL / 2)
	}
	follow := !leading && !now.Before(s.nextFollow)
	if follow {
		s.nextFollow = now.Add(s.cfg.LeaderTTL / 4)
	}
	s.mu.Unlock()
	if probe {
		s.probePeers(now)
	}
	if follow {
		s.followerPull(now)
	}
	s.maybeElect(now)
}

// maybeElect takes leadership when the leader has been silent past this
// replica's staggered timeout: term = maxSeen+1, persisted before the
// first commit can happen, so a crash right after winning cannot forget
// the term and re-elect below a term the fleet has already seen.
func (s *Server) maybeElect(now time.Time) {
	s.mu.Lock()
	if s.isLeader || now.Sub(s.leaderSeen) <= s.electionTimeoutLocked() {
		s.mu.Unlock()
		return
	}
	s.term = s.maxSeenTerm + 1
	s.maxSeenTerm = s.term
	s.isLeader = true
	s.leaderURL = s.cfg.Self
	s.leaderSeen = now
	s.nextReb = now.Add(s.cfg.RebalanceEvery)
	s.nextProbe = now
	term, epoch := s.term, s.epoch
	st := s.persistedLocked()
	s.mu.Unlock()
	s.elections.inc()
	s.saveState(st)
	s.logf("coord: elected leader at term %d (epoch %d, %d shards replicated)",
		term, epoch, len(st.Assigned))
	if fleet := s.cfg.Fleet; fleet != nil {
		fleet.Tracer.Emit(fleetobs.Event{Kind: fleetobs.KindElected, Term: term, Epoch: epoch})
	}
}

// stepDown demotes a leader that has seen proof of a higher term (or
// lost an equal-term tiebreak). No-op when already a follower.
func (s *Server) stepDown(now time.Time, seenTerm uint64, from string) {
	s.mu.Lock()
	if seenTerm > s.maxSeenTerm {
		s.maxSeenTerm = seenTerm
	}
	if !s.isLeader {
		s.mu.Unlock()
		return
	}
	s.isLeader = false
	s.leaderURL = ""
	s.leaderSeen = now // grant the new leader a full timeout before re-electing
	s.nextFollow = now
	term := s.term
	s.mu.Unlock()
	s.stepDowns.inc()
	s.logf("coord: stepping down at term %d: %s is at term %d", term, from, seenTerm)
	if fleet := s.cfg.Fleet; fleet != nil {
		fleet.Tracer.Emit(fleetobs.Event{
			Kind: fleetobs.KindStepDown, Term: seenTerm, Note: "from=" + from,
		})
	}
}

// probePeers is the leader's deposition check: it reads every peer's
// replica state and steps down on a higher term — or on an equal-term
// peer that also claims leadership and sorts first (the deterministic
// tiebreak for the rare simultaneous election).
func (s *Server) probePeers(now time.Time) {
	for _, url := range s.cfg.Peers {
		st, err := s.fetchState(url)
		if err != nil {
			continue
		}
		s.observePeer(url, st, now)
		s.mu.Lock()
		deposed := st.Term > s.term ||
			(st.Term == s.term && st.Leader != "" && st.Leader == st.Self && st.Self < s.cfg.Self)
		s.mu.Unlock()
		if deposed {
			s.stepDown(now, st.Term, "peer "+url)
		}
	}
}

// followerPull pulls every peer's replica state and adopts whatever is
// strictly newer. Polling all peers (not just the believed leader) is
// how a follower discovers the leader in the first place, and keeps the
// peer-lag view fresh for healthz.
func (s *Server) followerPull(now time.Time) {
	for _, url := range s.cfg.Peers {
		st, err := s.fetchState(url)
		if err != nil {
			continue
		}
		s.observePeer(url, st, now)
		s.adopt(st, now)
	}
}

// fetchState GETs one peer's replica-state document.
func (s *Server) fetchState(url string) (ReplicaState, error) {
	var st ReplicaState
	req, err := http.NewRequest(http.MethodGet, url+"/coord/v1/replica/state", nil)
	if err != nil {
		return st, err
	}
	resp, err := s.rclient.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("coord: replica state from %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(&st); err != nil {
		return st, err
	}
	return st, nil
}

// observePeer records one peer's replication view for lag metrics and
// healthz, and folds its term into maxSeenTerm.
func (s *Server) observePeer(url string, st ReplicaState, now time.Time) {
	s.mu.Lock()
	if st.Term > s.maxSeenTerm {
		s.maxSeenTerm = st.Term
	}
	s.peerView[url] = peerView{term: st.Term, epoch: st.Epoch, at: now}
	s.mu.Unlock()
}

// adopt fast-forwards this follower onto a strictly newer replica
// document — higher term, or a higher epoch within the same term — and
// persists it. A document from a lower term is the replica-side fence:
// a deposed leader still answering pulls must not roll a standby back.
func (s *Server) adopt(doc ReplicaState, now time.Time) {
	s.mu.Lock()
	if doc.Term < s.term {
		s.mu.Unlock()
		s.fencedPulls.inc()
		s.logf("coord: fenced replica pull from %s (term %d < %d)", doc.Self, doc.Term, s.term)
		if fleet := s.cfg.Fleet; fleet != nil {
			fleet.Tracer.Emit(fleetobs.Event{
				Kind: fleetobs.KindFenced, Term: doc.Term, Epoch: doc.Epoch,
				Note: "pull from " + doc.Self,
			})
		}
		return
	}
	if doc.Leader != "" {
		s.leaderURL = doc.Leader
		if doc.Leader == doc.Self {
			s.leaderSeen = now
		}
	}
	if doc.Term == s.term && doc.Epoch <= s.epoch {
		s.mu.Unlock()
		return // nothing newer than what we hold
	}
	s.term = doc.Term
	s.epoch = doc.Epoch
	weights := make(map[int64]int64, len(doc.Weights))
	for _, t := range doc.Weights {
		weights[t.ID] = t.Share
	}
	s.weights = weights
	assigned := make(map[string]map[int64]int64, len(doc.Assigned))
	for name, tasks := range doc.Assigned {
		shares := make(map[int64]int64, len(tasks))
		for _, t := range tasks {
			shares[t.ID] = t.Share
		}
		assigned[name] = shares
	}
	s.assigned = assigned
	s.shardDigest = doc.Shards
	term, epoch := s.term, s.epoch
	st := s.persistedLocked()
	s.mu.Unlock()
	s.saveState(st)
	s.logf("coord: replicated term=%d epoch=%d (%d shards) from %s", term, epoch, len(doc.Assigned), doc.Self)
}

// replicaStateLocked builds the document served to pulling peers.
func (s *Server) replicaStateLocked() ReplicaState {
	doc := ReplicaState{
		Self:  s.cfg.Self,
		Term:  s.term,
		Epoch: s.epoch,
	}
	if s.isLeader {
		doc.Leader = s.cfg.Self
	} else {
		doc.Leader = s.leaderURL
	}
	for p, w := range s.weights {
		doc.Weights = append(doc.Weights, TaskShare{ID: p, Share: w})
	}
	sort.Slice(doc.Weights, func(i, j int) bool { return doc.Weights[i].ID < doc.Weights[j].ID })
	doc.Assigned = make(map[string][]TaskShare, len(s.assigned))
	for name, shares := range s.assigned {
		ids := make([]int64, 0, len(shares))
		for p := range shares {
			ids = append(ids, p)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		tasks := make([]TaskShare, 0, len(ids))
		for _, p := range ids {
			tasks = append(tasks, TaskShare{ID: p, Share: shares[p]})
		}
		doc.Assigned[name] = tasks
	}
	if len(s.shards) > 0 {
		doc.Shards = make(map[string]uint64, len(s.shards))
		for name, rec := range s.shards {
			doc.Shards[name] = rec.ackEpoch
		}
	} else if len(s.shardDigest) > 0 {
		doc.Shards = s.shardDigest // follower: relay the replicated digest
	}
	return doc
}

// handleReplicaState serves GET /coord/v1/replica/state.
func (s *Server) handleReplicaState(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		writeJSONError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	s.mu.Lock()
	doc := s.replicaStateLocked()
	s.mu.Unlock()
	writeJSON(w, doc)
}

// SetWeights reconfigures the global weight table live:
// validate-all-then-apply, then an epoch++ commit so every shard pulls
// a re-stamped assignment and subsequent rebalances steer toward the
// new targets. Leader-only; standbys receive the table by replication.
func (s *Server) SetWeights(ws []TaskShare) (WeightsResponse, error) {
	if len(ws) == 0 {
		return WeightsResponse{}, errors.New("coord: weights: empty table")
	}
	seen := make(map[int64]bool, len(ws))
	for _, t := range ws {
		if t.Share <= 0 {
			return WeightsResponse{}, fmt.Errorf("coord: weights: weight %d for principal %d is not positive", t.Share, t.ID)
		}
		if seen[t.ID] {
			return WeightsResponse{}, fmt.Errorf("coord: weights: duplicate principal %d", t.ID)
		}
		seen[t.ID] = true
	}
	now := s.now()
	s.mu.Lock()
	if !s.isLeader {
		s.mu.Unlock()
		s.notLeaderRejects.inc()
		return WeightsResponse{}, errNotLeader
	}
	weights := make(map[int64]int64, len(ws))
	for _, t := range ws {
		weights[t.ID] = t.Share
	}
	s.weights = weights
	s.epoch++
	s.stats.commit(s.epoch, now)
	term, epoch := s.term, s.epoch
	st := s.persistedLocked()
	resp := WeightsResponse{Epoch: epoch, Term: term}
	s.mu.Unlock()
	resp.Weights = append([]TaskShare(nil), ws...)
	sort.Slice(resp.Weights, func(i, j int) bool { return resp.Weights[i].ID < resp.Weights[j].ID })
	s.weightUpdates.inc()
	s.saveState(st)
	s.logf("coord: weight table reconfigured (%d principals), committed epoch %d", len(ws), epoch)
	if fleet := s.cfg.Fleet; fleet != nil {
		fleet.Tracer.Emit(fleetobs.Event{
			Kind: fleetobs.KindWeights, Epoch: epoch, Term: term,
			Note: fmt.Sprintf("principals=%d", len(ws)),
		})
		fleet.Tracer.Emit(fleetobs.Event{Kind: fleetobs.KindCommit, Epoch: epoch, Term: term})
	}
	return resp, nil
}

// handleWeights serves POST /coord/v1/weights (leader-only; followers
// answer 409 with a leader hint).
func (s *Server) handleWeights(w http.ResponseWriter, r *http.Request) {
	var req WeightsRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, err := s.SetWeights(req.Weights)
	if errors.Is(err, errNotLeader) {
		s.writeNotLeader(w)
		return
	}
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, resp)
}

// leaderHintLocked names the leader to redirect a client to — but only
// when the leader has been seen alive within LeaderTTL. A stale hint
// would bounce agents at a dead leader in a loop; no hint makes them
// rotate through their replica list instead.
func (s *Server) leaderHintLocked(now time.Time) string {
	if s.isLeader {
		return s.cfg.Self
	}
	if s.leaderURL != "" && now.Sub(s.leaderSeen) <= s.cfg.LeaderTTL {
		return s.leaderURL
	}
	return ""
}

// writeNotLeader answers a mutating RPC on a follower: 409 with the
// machine-readable code and, when fresh, a leader hint.
func (s *Server) writeNotLeader(w http.ResponseWriter) {
	now := s.now()
	s.mu.Lock()
	hint := s.leaderHintLocked(now)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusConflict)
	_ = json.NewEncoder(w).Encode(wireError{
		Error: errNotLeader.Error(), Code: codeNotLeader, Leader: hint,
	})
}

// saveState checkpoints a committed document, counting (not failing on)
// write errors — the term/epoch protocol is the backstop the checkpoint
// merely accelerates.
func (s *Server) saveState(st persistedState) {
	if s.cfg.StatePath == "" {
		return
	}
	if err := ckpt.Save(s.cfg.StatePath, st); err != nil {
		s.ckptErrors.inc()
		s.logf("coord: checkpoint %s failed: %v", s.cfg.StatePath, err)
	}
}
