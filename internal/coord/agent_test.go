package coord

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"alps/internal/coord/coordsim"
)

// handlerTransport routes agent RPCs straight into a Server's handler —
// no sockets, fully deterministic. fail, while set, simulates a dead or
// partitioned coordinator.
type handlerTransport struct {
	mu      sync.Mutex
	handler http.Handler
	fail    error
	code    int // if nonzero (and fail nil), respond with this status
}

func (tr *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr.mu.Lock()
	fail, code, h := tr.fail, tr.code, tr.handler
	tr.mu.Unlock()
	if fail != nil {
		return nil, fail
	}
	w := httptest.NewRecorder()
	if code != 0 {
		w.WriteHeader(code)
	} else {
		h.ServeHTTP(w, req)
	}
	return w.Result(), nil
}

func (tr *handlerTransport) setFail(err error) {
	tr.mu.Lock()
	tr.fail = err
	tr.mu.Unlock()
}

type testShard struct {
	mu      sync.Mutex
	shares  map[int64]int64
	applied []uint64 // every epoch Apply committed, in order
	fail    error    // every Apply fails with it while set
}

func newTestShard(shares map[int64]int64) *testShard {
	return &testShard{shares: shares}
}

func (ts *testShard) tasks() []TaskShare {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]TaskShare, 0, len(ts.shares))
	for p, sh := range ts.shares {
		out = append(out, TaskShare{ID: p, Share: sh})
	}
	return out
}

func (ts *testShard) apply(a Assignment) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.fail != nil {
		return ts.fail
	}
	for _, t := range a.Tasks {
		ts.shares[t.ID] = t.Share
	}
	ts.applied = append(ts.applied, a.Epoch)
	return nil
}

func newTestAgent(t *testing.T, clk *coordsim.Clock, tr *handlerTransport, shard *testShard, name string) *Agent {
	t.Helper()
	a, err := NewAgent(AgentConfig{
		URL:    "http://coord.test",
		Shard:  name,
		Tasks:  shard.tasks,
		Gauges: func() ShardGauges { return ShardGauges{} },
		Apply:  shard.apply,
		Period: 100 * time.Millisecond,
		Clock:  clk.Now,

		Transport: tr,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	return a
}

// TestAgentAttachAndPull: first Step registers; after the coordinator
// commits a new epoch, the next Step's heartbeat pulls and applies it.
func TestAgentAttachAndPull(t *testing.T) {
	clk := coordsim.NewClock()
	srv := newTestServer(t, clk, "")
	tr := &handlerTransport{handler: srv}
	shard := newTestShard(map[int64]int64{1: 100, 2: 100})
	a := newTestAgent(t, clk, tr, shard, "s1")

	if d := a.Step(); d != 100*time.Millisecond {
		t.Fatalf("post-register delay = %v, want the period", d)
	}
	if st := a.Status(); !st.Attached || st.Epoch != 0 {
		t.Fatalf("after register: %+v", st)
	}

	// Make the coordinator commit epoch 1 (skewed window), then beat.
	beatViaAgentGauges(t, srv, clk, a, shard)
	if st := a.Status(); st.Epoch != 1 || st.Applies != 1 {
		t.Fatalf("after pull: %+v", st)
	}
	shard.mu.Lock()
	defer shard.mu.Unlock()
	if shard.shares[2] <= shard.shares[1] {
		t.Fatalf("assignment not applied locally: %v", shard.shares)
	}
}

// beatViaAgentGauges feeds the server a skewed window through a direct
// heartbeat (so it has signal), rebalances, then Steps the agent so it
// pulls the commit.
func beatViaAgentGauges(t *testing.T, srv *Server, clk *coordsim.Clock, a *Agent, shard *testShard) {
	t.Helper()
	srv.mu.Lock()
	rec := srv.shards[a.cfg.Shard]
	rec.window[1] += 0.75
	rec.window[2] += 0.25
	srv.mu.Unlock()
	clk.Advance(600 * time.Millisecond)
	srv.Rebalance(clk.Now())
	if srv.Epoch() == 0 {
		t.Fatal("server did not commit")
	}
	a.Step()
}

// TestAgentLeaseLostReregisters: the coordinator forgetting the lease
// (restart, expiry) is not a failure — the agent re-registers on the
// next Step and the link heals.
func TestAgentLeaseLostReregisters(t *testing.T) {
	clk := coordsim.NewClock()
	srv := newTestServer(t, clk, "")
	tr := &handlerTransport{handler: srv}
	shard := newTestShard(map[int64]int64{1: 10})
	a := newTestAgent(t, clk, tr, shard, "s1")
	a.Step() // register

	// Expire the lease server-side.
	clk.Advance(2 * time.Second)
	srv.ExpireLeases(clk.Now())

	d := a.Step() // heartbeat → 404 → detach
	if st := a.Status(); st.Attached {
		t.Fatalf("still attached after lease loss: %+v", st)
	}
	if d <= 0 {
		t.Fatalf("lease-lost delay = %v, want positive jittered delay", d)
	}
	a.Step() // re-register
	if st := a.Status(); !st.Attached {
		t.Fatalf("did not re-register: %+v", st)
	}
	if st := a.Status(); st.Failures != 0 {
		t.Fatalf("lease loss counted as failure: %+v", st)
	}
}

// TestAgentBackoff: consecutive transport failures back off
// exponentially from Period/4 up to the 8×Period cap, each wait jittered
// over [d/2, d), so the capped waits never fall below 4×Period; the first
// success returns to the heartbeat period and clears the failure count.
func TestAgentBackoff(t *testing.T) {
	clk := coordsim.NewClock()
	srv := newTestServer(t, clk, "")
	tr := &handlerTransport{handler: srv}
	shard := newTestShard(map[int64]int64{1: 10})
	a := newTestAgent(t, clk, tr, shard, "s1")
	period := a.cfg.Period
	if d := a.Step(); d != period {
		t.Fatalf("post-register delay = %v, want the period", d)
	}

	tr.setFail(errors.New("connection refused"))
	const failures = 12
	var prev time.Duration
	for i := 1; i <= failures; i++ {
		d := a.Step()
		if d <= 0 || d > 8*period {
			t.Fatalf("failure %d: wait %v outside (0, %v]", i, d, 8*period)
		}
		raw := period / 4 << (i - 1)
		if raw >= 8*period && d < 4*period {
			t.Fatalf("failure %d: capped wait %v below %v", i, d, 4*period)
		}
		if raw <= 8*period && d <= prev {
			t.Fatalf("failure %d: wait %v did not grow past %v", i, d, prev)
		}
		prev = d
	}
	if st := a.Status(); st.Failures != failures {
		t.Fatalf("failures = %d, want %d", st.Failures, failures)
	}

	// The coordinator is back: the next exchange heals the link.
	tr.setFail(nil)
	if d := a.Step(); d != period {
		t.Fatalf("wait after recovery = %v, want the period %v", d, period)
	}
	if st := a.Status(); st.Failures != 0 || !st.Attached {
		t.Fatalf("link did not heal: %+v", st)
	}
}

// TestAgentStaleEpochRejected: an assignment at or below the applied
// epoch is discarded — a delayed duplicate or a rolled-back coordinator
// cannot move shares backward.
func TestAgentStaleEpochRejected(t *testing.T) {
	clk := coordsim.NewClock()
	shard := newTestShard(map[int64]int64{1: 10})
	a := newTestAgent(t, clk, &handlerTransport{}, shard, "s1")

	a.maybeApply(Assignment{Epoch: 5, Tasks: []TaskShare{{ID: 1, Share: 77}}})
	if a.Epoch() != 5 {
		t.Fatalf("epoch = %d, want 5", a.Epoch())
	}
	a.maybeApply(Assignment{Epoch: 3, Tasks: []TaskShare{{ID: 1, Share: 1}}})
	a.maybeApply(Assignment{Epoch: 5, Tasks: []TaskShare{{ID: 1, Share: 1}}}) // duplicate
	st := a.Status()
	if st.Epoch != 5 || st.StaleRejected != 1 || st.Applies != 1 {
		t.Fatalf("after stale + duplicate: %+v", st)
	}
	shard.mu.Lock()
	defer shard.mu.Unlock()
	if shard.shares[1] != 77 {
		t.Fatalf("stale assignment applied: %v", shard.shares)
	}
}

// TestAgentApplyFailureRetried: a failed local apply leaves the agent's
// epoch unchanged, so the coordinator re-sends the assignment on every
// heartbeat. Each refusal counts, one log line names the refused epoch,
// and the first heartbeat after the shard recovers lands it.
func TestAgentApplyFailureRetried(t *testing.T) {
	clk := coordsim.NewClock()
	srv := newTestServer(t, clk, "")
	tr := &handlerTransport{handler: srv}
	shard := newTestShard(map[int64]int64{1: 100, 2: 100})
	a := newTestAgent(t, clk, tr, shard, "s1")
	refusals := 0
	a.cfg.Logf = func(format string, args ...any) {
		if strings.HasPrefix(format, "coord-link: apply epoch") {
			refusals++
		}
		t.Logf(format, args...)
	}
	a.Step() // register

	shard.mu.Lock()
	shard.fail = errors.New("scheduler busy")
	shard.mu.Unlock()
	beatViaAgentGauges(t, srv, clk, a, shard) // apply fails
	a.Step()
	a.Step() // the assignment is re-sent and refused twice more
	if st := a.Status(); st.Epoch != 0 || st.Applies != 0 || st.ApplyFailures != 3 {
		t.Fatalf("after three refused heartbeats: %+v", st)
	}
	if refusals != 1 {
		t.Errorf("logged %d refusals of epoch 1, want 1", refusals)
	}
	shard.mu.Lock()
	shard.fail = nil
	shard.mu.Unlock()
	a.Step() // next heartbeat re-pulls; apply succeeds now
	if st := a.Status(); st.Epoch != 1 || st.Applies != 1 || st.ApplyFailures != 3 {
		t.Fatalf("assignment not re-sent after apply failure: %+v", st)
	}
}

// TestAgentDegradedStatic: past 3×Period without coordinator contact
// the link reports degraded-to-static — the operator-visible signal
// that the shard is running on its last committed shares.
func TestAgentDegradedStatic(t *testing.T) {
	clk := coordsim.NewClock()
	srv := newTestServer(t, clk, "")
	tr := &handlerTransport{handler: srv}
	shard := newTestShard(map[int64]int64{1: 10})
	a := newTestAgent(t, clk, tr, shard, "s1")

	if st := a.Status(); !st.DegradedStatic {
		t.Fatalf("never-attached link not degraded: %+v", st)
	}
	a.Step()
	if st := a.Status(); st.DegradedStatic {
		t.Fatalf("fresh link degraded: %+v", st)
	}
	tr.setFail(errors.New("partition"))
	a.Step()
	clk.Advance(4 * a.cfg.Period) // past the 3×Period staleness bound
	st := a.Status()
	if !st.DegradedStatic {
		t.Fatalf("partitioned link not degraded: %+v", st)
	}
	if !st.Attached {
		t.Fatalf("degraded-to-static should still hold its lease view: %+v", st)
	}
}
