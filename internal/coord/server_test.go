package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"alps/internal/ckpt"
	"alps/internal/coord/coordsim"
)

func newTestServer(t *testing.T, clk *coordsim.Clock, statePath string) *Server {
	t.Helper()
	s, err := NewServer(ServerConfig{
		TTL:            time.Second,
		RebalanceEvery: 500 * time.Millisecond,
		StatePath:      statePath,
		Clock:          clk.Now,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return s
}

func mustRegister(t *testing.T, s *Server, shard string, tasks ...TaskShare) RegisterResponse {
	t.Helper()
	resp, err := s.Register(RegisterRequest{Shard: shard, Tasks: tasks})
	if err != nil {
		t.Fatalf("register %s: %v", shard, err)
	}
	return resp
}

// beat sends one heartbeat reporting the given cumulative consumption.
func beat(t *testing.T, s *Server, shard, lease string, epoch uint64, cum map[int64]float64) HeartbeatResponse {
	t.Helper()
	resp, err := s.Heartbeat(HeartbeatRequest{
		Shard: shard, Lease: lease, Epoch: epoch,
		Gauges: ShardGauges{Consumed: cum},
	})
	if err != nil {
		t.Fatalf("heartbeat %s: %v", shard, err)
	}
	return resp
}

// TestRegisterHeartbeatRebalance walks the happy path: register, feed a
// skewed consumption window, rebalance commits epoch 1, the next
// heartbeat pulls the corrected assignment.
func TestRegisterHeartbeatRebalance(t *testing.T) {
	clk := coordsim.NewClock()
	s := newTestServer(t, clk, "")
	reg := mustRegister(t, s, "s1", TaskShare{ID: 1, Share: 100}, TaskShare{ID: 2, Share: 100})
	if reg.Assignment.Epoch != 0 {
		t.Fatalf("initial epoch = %d, want 0", reg.Assignment.Epoch)
	}
	if len(reg.Assignment.Tasks) != 2 {
		t.Fatalf("initial assignment %v, want both tasks", reg.Assignment.Tasks)
	}

	// Weights adopted from registration are 100:100, but consumption is
	// skewed 3:1 — principal 2 is underserved.
	hb := beat(t, s, "s1", reg.Lease, 0, map[int64]float64{1: 0.75, 2: 0.25})
	if hb.Assignment != nil {
		t.Fatal("assignment pushed before any rebalance")
	}
	clk.Advance(600 * time.Millisecond)
	s.Tick(clk.Now())
	if got := s.Epoch(); got != 1 {
		t.Fatalf("epoch after skewed rebalance = %d, want 1", got)
	}
	hb = beat(t, s, "s1", reg.Lease, 0, map[int64]float64{1: 0.75, 2: 0.25})
	if hb.Assignment == nil {
		t.Fatal("heartbeat behind epoch 1 got no assignment")
	}
	if hb.Assignment.Epoch != 1 {
		t.Fatalf("pulled epoch %d, want 1", hb.Assignment.Epoch)
	}
	var sh1, sh2 int64
	for _, ts := range hb.Assignment.Tasks {
		switch ts.ID {
		case 1:
			sh1 = ts.Share
		case 2:
			sh2 = ts.Share
		}
	}
	if sh2 <= sh1 {
		t.Fatalf("underserved principal not boosted: 1=%d 2=%d", sh1, sh2)
	}
	// Caught-up heartbeat gets no assignment.
	if hb := beat(t, s, "s1", reg.Lease, 1, nil); hb.Assignment != nil {
		t.Fatal("caught-up heartbeat re-sent the assignment")
	}
}

// TestLeaseExpiry: a silent shard loses its lease after TTL and a
// forced rebalance redistributes to the survivors.
func TestLeaseExpiry(t *testing.T) {
	clk := coordsim.NewClock()
	s := newTestServer(t, clk, "")
	r1 := mustRegister(t, s, "s1", TaskShare{ID: 1, Share: 100})
	r2 := mustRegister(t, s, "s2", TaskShare{ID: 2, Share: 100})
	_ = r2

	// s1 keeps beating; s2 goes silent past the 1s TTL.
	for i := 0; i < 3; i++ {
		clk.Advance(400 * time.Millisecond)
		beat(t, s, "s1", r1.Lease, s.Epoch(), map[int64]float64{1: float64(i) * 0.4})
		s.Tick(clk.Now())
	}
	if n := len(s.Status().Shards); n != 1 {
		t.Fatalf("%d live shards after s2 went silent, want 1", n)
	}
	if s.Status().Shards[0].Shard != "s1" {
		t.Fatalf("survivor is %s, want s1", s.Status().Shards[0].Shard)
	}
	// s2's heartbeat with the dead lease is rejected — it must
	// re-register.
	_, err := s.Heartbeat(HeartbeatRequest{Shard: "s2", Lease: r2.Lease})
	if err == nil {
		t.Fatal("dead lease accepted")
	}
	reg2 := mustRegister(t, s, "s2", TaskShare{ID: 2, Share: 100})
	if reg2.Lease == r2.Lease {
		t.Fatal("re-registration reused the dead lease")
	}
}

// TestCheckpointRestart: a coordinator restart restores epoch, weights
// and committed assignments from its checkpoint, so the new incarnation
// keeps numbering where the old one stopped.
func TestCheckpointRestart(t *testing.T) {
	clk := coordsim.NewClock()
	path := filepath.Join(t.TempDir(), "coord.ckpt")
	s := newTestServer(t, clk, path)
	reg := mustRegister(t, s, "s1", TaskShare{ID: 1, Share: 100}, TaskShare{ID: 2, Share: 300})
	beat(t, s, "s1", reg.Lease, 0, map[int64]float64{1: 0.5, 2: 0.5})
	clk.Advance(time.Second)
	s.Rebalance(clk.Now())
	if s.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1", s.Epoch())
	}
	want := s.Status()

	s2 := newTestServer(t, clk, path)
	if s2.Epoch() != 1 {
		t.Fatalf("restored epoch = %d, want 1", s2.Epoch())
	}
	reg2 := mustRegister(t, s2, "s1", TaskShare{ID: 1, Share: 100}, TaskShare{ID: 2, Share: 300})
	if reg2.Assignment.Epoch != 1 {
		t.Fatalf("restored assignment epoch = %d, want 1", reg2.Assignment.Epoch)
	}
	// The committed (rebalanced) shares win over the re-registered ones.
	got := map[int64]int64{}
	for _, ts := range reg2.Assignment.Tasks {
		got[ts.ID] = ts.Share
	}
	for _, row := range want.Shards {
		for _, ts := range row.Shares {
			if got[ts.ID] != ts.Share {
				t.Fatalf("restored shares %v do not match committed %v", got, row.Shares)
			}
		}
	}
}

// TestStaleCheckpointFastForward: a coordinator restarted from an OLD
// checkpoint (or none) sees shard heartbeats carrying a higher epoch and
// fast-forwards, so its next commit is newer than anything in the fleet
// — shares can never roll backward fleet-wide.
func TestStaleCheckpointFastForward(t *testing.T) {
	clk := coordsim.NewClock()
	s := newTestServer(t, clk, "") // restarted with no state: epoch 0
	reg := mustRegister(t, s, "s1", TaskShare{ID: 1, Share: 100}, TaskShare{ID: 2, Share: 100})
	// The shard already applied epoch 7 from the previous incarnation.
	beat(t, s, "s1", reg.Lease, 7, map[int64]float64{1: 0.9, 2: 0.1})
	if got := s.Epoch(); got != 7 {
		t.Fatalf("epoch after ahead-heartbeat = %d, want fast-forward to 7", got)
	}
	if n := s.fastForwards.get(); n != 1 {
		t.Fatalf("fast-forwards = %d, want 1 (alps_coord_stale_fastforwards_total)", n)
	}
	clk.Advance(time.Second)
	s.Rebalance(clk.Now())
	if got := s.Epoch(); got != 8 {
		t.Fatalf("next commit epoch = %d, want 8 (strictly past the fleet)", got)
	}
}

// TestShardRestartConsumptionReset: a cumulative counter that goes
// backward means the shard restarted; the fresh reading becomes the
// window instead of a negative delta.
func TestShardRestartConsumptionReset(t *testing.T) {
	clk := coordsim.NewClock()
	s := newTestServer(t, clk, "")
	reg := mustRegister(t, s, "s1", TaskShare{ID: 1, Share: 100})
	beat(t, s, "s1", reg.Lease, 0, map[int64]float64{1: 5.0})
	beat(t, s, "s1", reg.Lease, 0, map[int64]float64{1: 0.25}) // restarted
	s.mu.Lock()
	win := s.shards["s1"].window[1]
	s.mu.Unlock()
	if win != 5.25 {
		t.Fatalf("window = %v, want 5.25 (5.0 + fresh 0.25, not negative)", win)
	}
}

// --- HTTP layer ---

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestHTTPEndpoints covers the wire layer: happy register/heartbeat,
// unknown-lease 404 with a JSON error body, method and body policing.
func TestHTTPEndpoints(t *testing.T) {
	clk := coordsim.NewClock()
	s := newTestServer(t, clk, "")

	w := postJSON(t, s, "/coord/v1/register", RegisterRequest{
		Shard: "s1", Tasks: []TaskShare{{ID: 1, Share: 10}},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("register: %d %s", w.Code, w.Body)
	}
	var reg RegisterResponse
	if err := json.Unmarshal(w.Body.Bytes(), &reg); err != nil {
		t.Fatalf("register body: %v", err)
	}
	if reg.Lease == "" || reg.TTLMillis != 1000 {
		t.Fatalf("register response %+v", reg)
	}

	w = postJSON(t, s, "/coord/v1/heartbeat", HeartbeatRequest{
		Shard: "s1", Lease: reg.Lease,
	})
	if w.Code != http.StatusOK {
		t.Fatalf("heartbeat: %d %s", w.Code, w.Body)
	}

	// Unknown lease → 404 + JSON error (the agent's re-register signal).
	w = postJSON(t, s, "/coord/v1/heartbeat", HeartbeatRequest{Shard: "s1", Lease: "bogus"})
	if w.Code != http.StatusNotFound {
		t.Fatalf("bogus lease: %d, want 404", w.Code)
	}
	var we wireError
	if err := json.Unmarshal(w.Body.Bytes(), &we); err != nil || we.Error == "" {
		t.Fatalf("bogus lease body %q not a wireError", w.Body)
	}

	// GET on a POST endpoint → 405.
	req := httptest.NewRequest(http.MethodGet, "/coord/v1/register", nil)
	rw := httptest.NewRecorder()
	s.ServeHTTP(rw, req)
	if rw.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET register: %d, want 405", rw.Code)
	}

	// Unknown fields are rejected (wire-format drift fails loudly).
	req = httptest.NewRequest(http.MethodPost, "/coord/v1/register",
		strings.NewReader(`{"shard":"x","tasks":[{"id":1,"share":1}],"surprise":true}`))
	rw = httptest.NewRecorder()
	s.ServeHTTP(rw, req)
	if rw.Code != http.StatusBadRequest {
		t.Fatalf("unknown field: %d, want 400", rw.Code)
	}
	// A shard of an earlier build echoes its last assignment's trace
	// context; the heartbeat is rejected, not silently accepted.
	req = httptest.NewRequest(http.MethodPost, "/coord/v1/heartbeat", strings.NewReader(
		`{"shard":"s1","lease":"`+reg.Lease+`","epoch":0,"gauges":{"rms_share_error":0,"cycles":1},"trace":{"epoch":0,"incarnation":1,"span":1}}`))
	rw = httptest.NewRecorder()
	s.ServeHTTP(rw, req)
	if rw.Code != http.StatusBadRequest {
		t.Fatalf("heartbeat with a trace context: %d, want 400", rw.Code)
	}

	// Oversized body is cut off by MaxBytesReader, not read to the end.
	big := strings.NewReader(`{"shard":"` + strings.Repeat("x", maxBodyBytes+1024) + `"}`)
	req = httptest.NewRequest(http.MethodPost, "/coord/v1/register", big)
	rw = httptest.NewRecorder()
	s.ServeHTTP(rw, req)
	if rw.Code != http.StatusBadRequest {
		t.Fatalf("oversized body: %d, want 400", rw.Code)
	}

	// Status endpoint returns the fleet document.
	req = httptest.NewRequest(http.MethodGet, "/coord/v1/status", nil)
	rw = httptest.NewRecorder()
	s.ServeHTTP(rw, req)
	var st FleetStatus
	if err := json.Unmarshal(rw.Body.Bytes(), &st); err != nil {
		t.Fatalf("status body: %v", err)
	}
	if len(st.Shards) != 1 || st.Shards[0].Shard != "s1" {
		t.Fatalf("status %+v", st)
	}

	// Assignment endpoint for a known and an unknown shard.
	req = httptest.NewRequest(http.MethodGet, "/coord/v1/assignment?shard=s1", nil)
	rw = httptest.NewRecorder()
	s.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("assignment s1: %d", rw.Code)
	}
	req = httptest.NewRequest(http.MethodGet, "/coord/v1/assignment?shard=nope", nil)
	rw = httptest.NewRecorder()
	s.ServeHTTP(rw, req)
	if rw.Code != http.StatusNotFound {
		t.Fatalf("assignment nope: %d, want 404", rw.Code)
	}
}

// TestWeightsUpdateLive: the weight table is validated whole before any
// of it applies, a good table commits one epoch (directly and over POST
// /coord/v1/weights), a coordinator restarted from the checkpoint has
// the new table, and the shard's next heartbeat carries the re-stamped
// assignment.
func TestWeightsUpdateLive(t *testing.T) {
	clk := coordsim.NewClock()
	path := filepath.Join(t.TempDir(), "coord.ckpt")
	s := newTestServer(t, clk, path)
	reg := mustRegister(t, s, "s1", TaskShare{ID: 1, Share: 100}, TaskShare{ID: 2, Share: 100})
	epoch0 := s.Epoch()

	for _, bad := range [][]TaskShare{
		nil,
		{{ID: 1, Share: 0}},
		{{ID: 1, Share: 2}, {ID: 1, Share: 3}},
	} {
		if _, err := s.SetWeights(bad); err == nil {
			t.Fatalf("SetWeights(%v) accepted an invalid table", bad)
		}
	}
	if got := s.Epoch(); got != epoch0 {
		t.Fatalf("epoch moved to %d on rejected tables, want %d", got, epoch0)
	}

	resp, err := s.SetWeights([]TaskShare{{ID: 2, Share: 1}, {ID: 1, Share: 5}})
	if err != nil {
		t.Fatalf("SetWeights: %v", err)
	}
	if resp.Epoch != epoch0+1 {
		t.Fatalf("weights committed epoch %d, want %d", resp.Epoch, epoch0+1)
	}
	if len(resp.Weights) != 2 || resp.Weights[0] != (TaskShare{ID: 1, Share: 5}) {
		t.Fatalf("response table %v, want principal 1 first at weight 5", resp.Weights)
	}
	if got := s.Status().Weights[1]; got != 5 {
		t.Fatalf("weight[1] = %d, want 5", got)
	}

	w := postJSON(t, s, "/coord/v1/weights", WeightsRequest{Weights: []TaskShare{{ID: 1, Share: 7}, {ID: 2, Share: 1}}})
	if w.Code != http.StatusOK {
		t.Fatalf("weights POST: HTTP %d %s, want 200", w.Code, w.Body)
	}
	var wresp WeightsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &wresp); err != nil {
		t.Fatalf("decode weights response: %v", err)
	}
	if wresp.Epoch != epoch0+2 {
		t.Fatalf("HTTP weights commit epoch = %d, want %d", wresp.Epoch, epoch0+2)
	}
	if got := s.weightUpdates.get(); got != 2 {
		t.Fatalf("weightUpdates = %d, want 2", got)
	}

	restarted := newTestServer(t, clk, path)
	if got := restarted.Status().Weights; got[1] != 7 || got[2] != 1 {
		t.Fatalf("restarted weights = %v, want 1:7 2:1", got)
	}
	if got := restarted.Epoch(); got != epoch0+2 {
		t.Fatalf("restarted epoch = %d, want %d", got, epoch0+2)
	}

	hb := beat(t, s, "s1", reg.Lease, epoch0, nil)
	if hb.Assignment == nil || hb.Assignment.Epoch != epoch0+2 {
		t.Fatalf("heartbeat after the weight change got %+v, want the epoch %d assignment", hb.Assignment, epoch0+2)
	}
}

// TestRestoreReplicaCheckpoint: a checkpoint written by a coordinator
// replica of an earlier build also carries "term". It still restores
// the epoch, weights and assignments.
func TestRestoreReplicaCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.ckpt")
	legacy := json.RawMessage(`{"epoch":7,"term":3,"weights":{"1":5,"2":1},"assigned":{"s1":{"1":300,"2":100}}}`)
	if err := ckpt.Save(path, legacy); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, coordsim.NewClock(), path)
	if got := s.Epoch(); got != 7 {
		t.Fatalf("restored epoch = %d, want 7", got)
	}
	if got := s.Status().Weights; got[1] != 5 || got[2] != 1 {
		t.Fatalf("restored weights = %v, want 1:5 2:1", got)
	}
	reg := mustRegister(t, s, "s1", TaskShare{ID: 1, Share: 1}, TaskShare{ID: 2, Share: 1})
	want := []TaskShare{{ID: 1, Share: 300}, {ID: 2, Share: 100}}
	if got := reg.Assignment.Tasks; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("restored assignment %v, want %v", got, want)
	}
}

// TestCommitSavesBeforePublish: no shard may be handed an epoch that the
// checkpoint does not hold yet, or a restart could come back behind what
// the fleet has already applied. A shard heartbeats in a tight loop and
// loads the checkpoint for every assignment it receives, while the test
// commits 200 rebalance rounds, then 200 weight tables.
func TestCommitSavesBeforePublish(t *testing.T) {
	for _, tc := range []struct {
		name   string
		commit func(s *Server, i int, now time.Time)
	}{
		{"rebalance", func(s *Server, _ int, now time.Time) { s.Rebalance(now) }},
		{"weights", func(s *Server, i int, _ time.Time) {
			if _, err := s.SetWeights([]TaskShare{{ID: 1, Share: int64(1 + i%3)}, {ID: 2, Share: 1}}); err != nil {
				t.Error(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := coordsim.NewClock()
			path := filepath.Join(t.TempDir(), "coord.ckpt")
			s, err := NewServer(ServerConfig{
				TTL:            time.Hour,
				RebalanceEvery: time.Hour,
				StatePath:      path,
				Clock:          clk.Now,
			})
			if err != nil {
				t.Fatal(err)
			}
			reg := mustRegister(t, s, "s1", TaskShare{ID: 1, Share: 100}, TaskShare{ID: 2, Share: 100})

			stop := make(chan struct{})
			type result struct {
				seen  int
				early []string
				err   error
			}
			done := make(chan result)
			go func() {
				var res result
				epoch := reg.Assignment.Epoch
				cum := 0.0
				for {
					select {
					case <-stop:
						done <- res
						return
					default:
					}
					// Skewed 3:1 against 1:1 weights, so every round
					// that sees a window moves shares.
					cum += 0.01
					resp, err := s.Heartbeat(HeartbeatRequest{
						Shard: "s1", Lease: reg.Lease, Epoch: epoch,
						Gauges: ShardGauges{Consumed: map[int64]float64{1: 3 * cum, 2: cum}},
					})
					if err != nil {
						res.err = err
						<-stop
						done <- res
						return
					}
					if resp.Assignment == nil {
						continue
					}
					a := resp.Assignment.Epoch
					var st persistedState
					if err := ckpt.Load(path, &st); err != nil || st.Epoch < a {
						res.early = append(res.early, fmt.Sprintf("epoch %d published, checkpoint at %d (%v)", a, st.Epoch, err))
					}
					res.seen++
					epoch = a
				}
			}()
			for i := 0; i < 200; i++ {
				// Let at least one heartbeat land first, so every
				// rebalance round has a consumption window to plan from.
				for last, deadline := s.heartbeats.get(), time.Now().Add(time.Second); s.heartbeats.get() == last && time.Now().Before(deadline); {
					runtime.Gosched()
				}
				clk.Advance(time.Millisecond)
				tc.commit(s, i, clk.Now())
			}
			close(stop)
			res := <-done
			if res.err != nil {
				t.Fatalf("heartbeat: %v", res.err)
			}
			if res.seen == 0 {
				t.Fatal("the heartbeating shard was never handed an assignment")
			}
			if len(res.early) > 0 {
				t.Fatalf("%d of %d assignments were published before their checkpoint: %v",
					len(res.early), res.seen, res.early)
			}
			t.Logf("%d assignments, each already checkpointed", res.seen)
		})
	}
}

// TestCommitPublishesDespiteSaveFailure: a checkpoint that cannot be
// written is counted, and the epoch is published anyway.
func TestCommitPublishesDespiteSaveFailure(t *testing.T) {
	clk := coordsim.NewClock()
	s := newTestServer(t, clk, filepath.Join(t.TempDir(), "missing-dir", "coord.ckpt"))
	reg := mustRegister(t, s, "s1", TaskShare{ID: 1, Share: 100})
	if _, err := s.SetWeights([]TaskShare{{ID: 1, Share: 2}}); err != nil {
		t.Fatalf("SetWeights: %v", err)
	}
	if got := s.ckptErrors.get(); got != 1 {
		t.Fatalf("checkpoint errors = %d, want 1", got)
	}
	if hb := beat(t, s, "s1", reg.Lease, 0, nil); hb.Assignment == nil || hb.Assignment.Epoch != 1 {
		t.Fatalf("heartbeat got %+v, want the epoch 1 assignment", hb.Assignment)
	}
}
