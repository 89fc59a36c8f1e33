package fleetobs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"alps/internal/obs"
	"alps/internal/trace"
)

// testClock is a settable virtual clock.
type testClock struct{ t time.Time }

func newTestClock() *testClock {
	return &testClock{t: time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *testClock) Now() time.Time          { return c.t }
func (c *testClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

func TestTracerRingAndSpans(t *testing.T) {
	clk := newTestClock()
	tr := NewTracer(TracerConfig{Node: "s1", Events: 4, Now: clk.Now})
	if tr.Incarnation() != uint64(clk.Now().UnixNano()) {
		t.Fatalf("incarnation not taken from clock: %d", tr.Incarnation())
	}
	for i := 0; i < 6; i++ {
		clk.Advance(time.Millisecond)
		tr.Emit(Event{Kind: KindPublish, Epoch: uint64(i)})
	}
	got := tr.Snapshot()
	if len(got) != 4 {
		t.Fatalf("ring should hold 4 events, got %d", len(got))
	}
	// Oldest first, and the two oldest were evicted.
	if got[0].Epoch != 2 || got[3].Epoch != 5 {
		t.Fatalf("ring order wrong: epochs %d..%d", got[0].Epoch, got[3].Epoch)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Span <= got[i-1].Span {
			t.Fatalf("span ids not monotone: %d then %d", got[i-1].Span, got[i].Span)
		}
		if got[i].Incarnation != tr.Incarnation() {
			t.Fatalf("event missing incarnation")
		}
	}
	if tr.Events() != 6 {
		t.Fatalf("total events = %d, want 6", tr.Events())
	}
}

func TestTracerSourceRoundTrip(t *testing.T) {
	clk := newTestClock()
	tr := NewTracer(TracerConfig{Node: "coord", Coordinator: true, Now: clk.Now})
	tr.Emit(Event{Kind: KindPublish, Epoch: 3, Peer: "s1", Note: "ttl=5s"})
	src := tr.Source(nil, time.Time{})
	if !src.Coordinator || src.Name != "coord" {
		t.Fatalf("source header wrong: %+v", src)
	}
	if len(src.Spans) != 1 {
		t.Fatalf("want 1 span, got %d", len(src.Spans))
	}
	sp := src.Spans[0]
	if sp.Name != "publish" || sp.Epoch != 3 || sp.Inc != tr.Incarnation() {
		t.Fatalf("span conversion wrong: %+v", sp)
	}
	if sp.Args["peer"] != "s1" || sp.Args["note"] != "ttl=5s" {
		t.Fatalf("span args wrong: %+v", sp.Args)
	}
}

func TestAuditorGlobalRMS(t *testing.T) {
	clk := newTestClock()
	a := NewFleetAuditor(AuditorConfig{Now: clk.Now, RMSWindow: 4})
	weights := map[int64]float64{1: 3, 2: 1}
	// Perfect proportional consumption: 3:1.
	for i := 0; i < 4; i++ {
		a.OnRound(map[int64]float64{1: 0.3, 2: 0.1}, weights, false)
	}
	if rms := a.GlobalRMSShareError(); rms > 1e-9 {
		t.Fatalf("perfect split should give ~0 RMS, got %g", rms)
	}
	// Inverted consumption: principal 2 hogging.
	for i := 0; i < 4; i++ {
		a.OnRound(map[int64]float64{1: 0.1, 2: 0.3}, weights, true)
	}
	if rms := a.GlobalRMSShareError(); rms < 0.3 {
		t.Fatalf("inverted split should give large RMS, got %g", rms)
	}
}

func TestAuditorConvergence(t *testing.T) {
	a := NewFleetAuditor(AuditorConfig{StableStreak: 2})
	w := map[int64]float64{1: 1}
	c := map[int64]float64{1: 1}
	h := a.Health()
	if !h.Converged {
		t.Fatal("fresh auditor should be converged")
	}
	// Disturbance: 3 changing rounds, then 2 stable ones.
	a.OnRound(c, w, true)
	a.OnRound(c, w, true)
	a.OnRound(c, w, true)
	if a.Health().Converged {
		t.Fatal("should not be converged mid-disturbance")
	}
	a.OnRound(c, w, false)
	a.OnRound(c, w, false)
	h = a.Health()
	if !h.Converged {
		t.Fatal("two stable rounds should re-converge")
	}
	if h.ConvergenceRounds != 5 {
		t.Fatalf("convergence took 5 rounds, reported %d", h.ConvergenceRounds)
	}
}

func TestAuditorPropagationAndLeases(t *testing.T) {
	clk := newTestClock()
	a := NewFleetAuditor(AuditorConfig{Now: clk.Now})
	reg := obs.NewRegistry()
	a.Register(reg)

	s1 := a.Shard("s1")
	s1.OnHeartbeat(clk.Now(), 0, 0.1, false)
	a.OnCommit(1, clk.Now())
	clk.Advance(250 * time.Millisecond)
	a.OnAck("s1", 1, clk.Now())
	// Re-acking the same epoch must not double-observe.
	a.OnAck("s1", 1, clk.Now())
	clk.Advance(100 * time.Millisecond)
	a.OnCommit(2, clk.Now())
	a.OnCommit(3, clk.Now())
	clk.Advance(50 * time.Millisecond)
	// One ack covering both outstanding epochs times both.
	a.OnAck("s1", 3, clk.Now())

	h := a.Health()
	if h.PropagationCount != 3 {
		t.Fatalf("want 3 propagation observations, got %d", h.PropagationCount)
	}
	if h.PropagationMaxSec < 0.24 || h.PropagationMaxSec > 0.26 {
		t.Fatalf("max propagation should be ~0.25s, got %g", h.PropagationMaxSec)
	}

	a.OnLeaseExpire("s1")
	h = a.Health()
	if len(h.Shards) != 1 || !h.Shards[0].Detached {
		t.Fatalf("lease expiry should mark shard detached: %+v", h.Shards)
	}
	if h.LeaseExpiries != 1 {
		t.Fatalf("lease expiries = %d", h.LeaseExpiries)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := buf.String()
	for _, want := range []string{
		"alps_fleet_global_rms_share_error",
		"alps_fleet_epoch_propagation_seconds",
		`alps_fleet_lease_age_seconds{shard="s1"}`,
		"alps_fleet_lease_expiries_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestBundlerCollectionFlow(t *testing.T) {
	clk := newTestClock()
	coordTr := NewTracer(TracerConfig{Node: "coord", Coordinator: true, Now: clk.Now})
	coordTr.Emit(Event{Kind: KindCommit, Epoch: 7})
	dir := t.TempDir()
	b := NewBundler(BundlerConfig{
		Dir: dir, Cooldown: time.Second, Now: clk.Now,
		Self: func() trace.FleetSource { return coordTr.Source(nil, time.Time{}) },
	})

	if b.Pending() != nil {
		t.Fatal("no collection yet, Pending should be nil")
	}
	if !b.Open("lease_lost", 7) {
		t.Fatal("first Open should start a collection")
	}
	if b.Open("shard_dump", 7) {
		t.Fatal("second Open inside cooldown should be suppressed")
	}
	req := b.Pending()
	if req == nil || req.Reason != "lease_lost" || req.Epoch != 7 {
		t.Fatalf("Pending = %+v", req)
	}

	shardTr := NewTracer(TracerConfig{Node: "s1", Now: clk.Now})
	shardTr.Emit(Event{Kind: KindApply, Epoch: 7, Parent: 1, ParentInc: coordTr.Incarnation()})
	payload := DumpPayload{
		Shard: "s1", Seq: req.Seq, Reason: req.Reason,
		Incarnation:    shardTr.Incarnation(),
		AnchorUnixNano: clk.Now().UnixNano(),
		Fleet:          shardTr.Snapshot(),
		Obs: []obs.Event{
			{Kind: obs.KindQuantumStart, Tick: 1, At: 0},
			{Kind: obs.KindQuantumEnd, Tick: 1, At: 10 * time.Millisecond},
		},
	}
	if err := b.Accept(payload); err != nil {
		t.Fatalf("Accept: %v", err)
	}
	if err := b.Accept(DumpPayload{Shard: "sX", Seq: 42}); err == nil {
		t.Fatal("unknown seq should be rejected")
	}

	_, sources, ok := b.Last()
	if !ok || len(sources) != 2 {
		t.Fatalf("want coord+s1 in collection, got %d sources", len(sources))
	}
	if !sources[0].Coordinator || sources[1].Name != "s1" {
		t.Fatalf("sources not coordinator-first: %+v", sources)
	}

	// The HTTP download is a valid merged trace with download headers.
	rr := httptest.NewRecorder()
	b.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/fleet-trace", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q", ct)
	}
	if cd := rr.Header().Get("Content-Disposition"); !strings.Contains(cd, "fleet-lease_lost-7.json") {
		t.Errorf("Content-Disposition = %q", cd)
	}
	if err := trace.Validate(rr.Body.Bytes()); err != nil {
		t.Fatalf("served bundle does not validate: %v", err)
	}

	// And the bundle directory holds the member payload + merged trace.
	for _, name := range []string{"fleet-lease_lost-7/fleet.json", "fleet-lease_lost-7/s1.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("bundle file %s: %v", name, err)
		}
	}

	// After the cooldown a new collection opens and Pending moves on.
	clk.Advance(2 * time.Second)
	if !b.Open("epoch_stall", 9) {
		t.Fatal("Open after cooldown should succeed")
	}
	if req := b.Pending(); req.Reason != "epoch_stall" {
		t.Fatalf("Pending should track latest collection, got %+v", req)
	}
	if b.Collections() != 2 {
		t.Fatalf("collections = %d", b.Collections())
	}
}

func TestStackMount(t *testing.T) {
	clk := newTestClock()
	s := NewStack(StackConfig{Node: "coord", Now: clk.Now})
	s.Auditor.OnRound(map[int64]float64{1: 1}, map[int64]float64{1: 1}, false)
	mux := http.NewServeMux()
	s.Mount(mux)

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/fleet/metrics", nil))
	if !strings.Contains(rr.Body.String(), "alps_fleet_global_rms_share_error") {
		t.Errorf("/fleet/metrics missing fleet gauges: %s", rr.Body.String())
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/fleet/healthz", nil))
	if !strings.Contains(rr.Body.String(), "global_rms_share_error") {
		t.Errorf("/fleet/healthz body: %s", rr.Body.String())
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/fleet-trace", nil))
	if rr.Code != 404 {
		t.Errorf("fleet-trace before any collection should 404, got %d", rr.Code)
	}
}

// TestAuditorStaleShards: with a LeaseTTL configured, a shard silent
// past the TTL (without a clean lease expiry) is marked stale — flagged
// in healthz and excluded from the live/degraded gauges — and comes
// back the moment it heartbeats again.
func TestAuditorStaleShards(t *testing.T) {
	clk := newTestClock()
	a := NewFleetAuditor(AuditorConfig{Now: clk.Now, LeaseTTL: time.Second})
	reg := obs.NewRegistry()
	a.Register(reg)

	cases := []struct {
		name     string
		age      time.Duration
		degraded bool
		detach   bool
	}{
		{"fresh", 100 * time.Millisecond, false, false},
		{"fresh-degraded", 900 * time.Millisecond, true, false},
		{"silent-dead", 5 * time.Second, false, false},    // → stale
		{"silent-degraded", 2 * time.Second, true, false}, // → stale, not degraded
		{"detached", 5 * time.Second, false, true},        // clean expiry wins over stale
	}
	base := clk.Now()
	for _, c := range cases {
		a.Shard(c.name).OnHeartbeat(base.Add(-c.age), 1, 0.05, c.degraded)
		if c.detach {
			a.OnLeaseExpire(c.name)
		}
	}

	live, degraded, detached, stale := a.countShards()
	if live != 2 || degraded != 1 || detached != 1 || stale != 2 {
		t.Fatalf("counts live=%d degraded=%d detached=%d stale=%d, want 2/1/1/2",
			live, degraded, detached, stale)
	}

	h := a.Health()
	byName := make(map[string]ShardHealth, len(h.Shards))
	for _, row := range h.Shards {
		byName[row.Name] = row
	}
	for name, wantStale := range map[string]bool{
		"fresh": false, "fresh-degraded": false,
		"silent-dead": true, "silent-degraded": true,
		"detached": false, // detached, not stale: the expiry was explicit
	} {
		if byName[name].Stale != wantStale {
			t.Errorf("%s: stale = %v, want %v", name, byName[name].Stale, wantStale)
		}
	}
	if !byName["detached"].Detached {
		t.Errorf("detached row lost its flag: %+v", byName["detached"])
	}

	// A heartbeat resurrects a stale row into the live count.
	a.Shard("silent-dead").OnHeartbeat(clk.Now(), 2, 0.05, false)
	live, _, _, stale = a.countShards()
	if live != 3 || stale != 1 {
		t.Fatalf("after resurrection live=%d stale=%d, want 3/1", live, stale)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !strings.Contains(buf.String(), "alps_fleet_shards_stale 1") {
		t.Errorf("metrics missing alps_fleet_shards_stale 1:\n%s", buf.String())
	}
}

// TestAuditorReplicationView: leadership and peer-replica observations
// surface in healthz and the alps_fleet_term / alps_fleet_is_leader
// gauges.
func TestAuditorReplicationView(t *testing.T) {
	clk := newTestClock()
	a := NewFleetAuditor(AuditorConfig{Now: clk.Now})
	reg := obs.NewRegistry()
	a.Register(reg)

	a.OnLeadership("http://r1", 3, true)
	a.OnReplicaState("http://r2", 3, 41, clk.Now())
	clk.Advance(2 * time.Second)
	a.OnReplicaState("http://r3", 2, 40, clk.Now())

	h := a.Health()
	if h.Leader != "http://r1" || h.Term != 3 || !h.IsLeader {
		t.Fatalf("leadership view: %+v", h)
	}
	if len(h.Replicas) != 2 {
		t.Fatalf("replicas: %+v", h.Replicas)
	}
	if h.Replicas[0].URL != "http://r2" || h.Replicas[0].Epoch != 41 || h.Replicas[0].AgeSec < 1.9 {
		t.Fatalf("replica r2 row: %+v", h.Replicas[0])
	}
	if h.Replicas[1].URL != "http://r3" || h.Replicas[1].Term != 2 {
		t.Fatalf("replica r3 row: %+v", h.Replicas[1])
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, want := range []string{"alps_fleet_term 3", "alps_fleet_is_leader 1"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestAuditorRoundEstimators: the per-round raw RMS wobbles on an
// alternating consumption pattern while the EWMA smooths it, and the
// beat gauge reports the wobble.
func TestAuditorRoundEstimators(t *testing.T) {
	a := NewFleetAuditor(AuditorConfig{RMSWindow: 2})
	w := map[int64]float64{1: 1, 2: 1}
	// A period-2 beat: rounds alternate which principal over-consumes,
	// so each round's instantaneous RMS is 0.5 while any aligned 2-round
	// aggregate is perfect.
	var rounds, ewmas []float64
	for i := 0; i < 40; i++ {
		c := map[int64]float64{1: 0.75, 2: 0.25}
		if i%2 == 1 {
			c = map[int64]float64{1: 0.25, 2: 0.75}
		}
		a.OnRound(c, w, false)
		rounds = append(rounds, a.RoundRMSShareError())
		ewmas = append(ewmas, a.EWMAShareError())
	}
	if r := a.RoundRMSShareError(); math.Abs(r-0.5) > 1e-9 {
		t.Errorf("instantaneous round RMS = %v, want 0.5", r)
	}
	// The EWMA settles to the mean (0.5 every round here, so equal),
	// but its excursion across the tail must be far below the raw
	// swing... use a pattern where raw actually swings:
	b := NewFleetAuditor(AuditorConfig{RMSWindow: 2})
	var rawTail, ewmaTailVals []float64
	for i := 0; i < 60; i++ {
		c := map[int64]float64{1: 0.5, 2: 0.5} // perfect: RMS 0
		if i%2 == 1 {
			c = map[int64]float64{1: 0.75, 2: 0.25} // skewed: RMS 0.5
		}
		b.OnRound(c, w, false)
		if i >= 40 {
			rawTail = append(rawTail, b.RoundRMSShareError())
			ewmaTailVals = append(ewmaTailVals, b.EWMAShareError())
		}
	}
	rawSwing := maxOf(rawTail) - minOf(rawTail)
	ewmaSwing := maxOf(ewmaTailVals) - minOf(ewmaTailVals)
	if rawSwing < 0.4 {
		t.Fatalf("raw per-round RMS shows no beat: swing %v", rawSwing)
	}
	if ewmaSwing > rawSwing/5 {
		t.Errorf("EWMA swing %v not >=5x below raw swing %v", ewmaSwing, rawSwing)
	}
	if br := b.RMSBeatRatio(); br < 1 {
		t.Errorf("beat ratio %v implausibly small for a 0<->0.5 square wave", br)
	}
	if !b.Health().Converged {
		t.Error("fleet not converged although no round moved shares")
	}
}

// TestAuditorIdleRoundNoSignal: a round in which no target consumed
// anything carries no share-error signal, so it moves no estimator —
// the windowed and per-round RMS, the EWMA and the beat ring all hold.
// Folding the idle round in as 0 would pull the EWMA from 0.50 to 0.45
// and the beat ratio from 0 to 1.03.
func TestAuditorIdleRoundNoSignal(t *testing.T) {
	a := NewFleetAuditor(AuditorConfig{RMSWindow: 4})
	w := map[int64]float64{1: 1, 2: 1}
	for i := 0; i < 31; i++ {
		a.OnRound(map[int64]float64{1: 0.75, 2: 0.25}, w, false)
	}
	snap := func() [4]float64 {
		return [4]float64{a.GlobalRMSShareError(), a.RoundRMSShareError(), a.EWMAShareError(), a.RMSBeatRatio()}
	}
	before := snap()
	if math.Abs(before[2]-0.5) > 1e-12 || before[3] != 0 {
		t.Fatalf("setup: EWMA %v, beat ratio %v; want 0.5 and 0", before[2], before[3])
	}
	a.OnRound(map[int64]float64{1: 0, 2: 0}, w, false)
	if after := snap(); after != before {
		t.Errorf("idle round moved the estimators: (global, round, ewma, beat) %v -> %v", before, after)
	}
	// Idle targets while principal 9, outside the weight table,
	// consumed: 9 is not a target and counts for nothing.
	a.OnRound(map[int64]float64{9: 1}, w, false)
	if after := snap(); after != before {
		t.Errorf("outsider-only round moved the estimators: %v -> %v", before, after)
	}
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// TestFederatedShardStaleness is the satellite's table test: every
// federated per-shard gauge comes with a last_heartbeat_age_seconds
// stamp, and an isolated (silent) shard's frozen values are marked
// stale while a live shard's are not.
func TestFederatedShardStaleness(t *testing.T) {
	clk := newTestClock()
	a := NewFleetAuditor(AuditorConfig{Now: clk.Now, LeaseTTL: time.Second})
	reg := obs.NewRegistry()
	a.Register(reg)

	live := a.Shard("live")
	isolated := a.Shard("isolated")
	isolated.OnHeartbeat(clk.Now(), 7, 0.25, false)
	// The isolated shard goes silent for 3 TTLs; the live one keeps
	// beating.
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		live.OnHeartbeat(clk.Now(), 9, 0.01, false)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, tc := range []struct {
		metric string
		want   string
	}{
		// The staleness stamp: fresh beside the live shard's gauges,
		// three TTLs old beside the isolated shard's.
		{`alps_fleet_last_heartbeat_age_seconds{shard="live"}`, "0"},
		{`alps_fleet_last_heartbeat_age_seconds{shard="isolated"}`, "3"},
		// The federated values themselves survive isolation (frozen)...
		{`alps_fleet_shard_rms_share_error{shard="isolated"}`, "0.25"},
		{`alps_fleet_shard_ack_epoch{shard="isolated"}`, "7"},
		{`alps_fleet_shard_rms_share_error{shard="live"}`, "0.01"},
		{`alps_fleet_shard_ack_epoch{shard="live"}`, "9"},
		// ...but the stale flag distinguishes them.
		{`alps_fleet_shard_stale{shard="isolated"}`, "1"},
		{`alps_fleet_shard_stale{shard="live"}`, "0"},
	} {
		line := tc.metric + " " + tc.want
		if !strings.Contains(out, line) {
			t.Errorf("metrics missing %q:\n%s", line, out)
		}
	}
}

// TestStackTimeline: the stack retains gauge history on its own
// registry and serves it (with per-shard staleness stamps) at
// /fleet/timeline, JSON and CSV.
func TestStackTimeline(t *testing.T) {
	clk := newTestClock()
	s := NewStack(StackConfig{Node: "coord", Now: clk.Now, LeaseTTL: time.Second, HistoryEvery: time.Second})
	s.Auditor.Shard("s1").OnHeartbeat(clk.Now(), 1, 0.1, false)
	for i := 0; i < 3; i++ {
		s.Auditor.OnRound(map[int64]float64{1: 1}, map[int64]float64{1: 1}, false)
		s.History.Sample(clk.Now())
		clk.Advance(time.Second)
	}
	mux := http.NewServeMux()
	s.Mount(mux)

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/fleet/timeline", nil))
	var ft FleetTimeline
	if err := json.Unmarshal(rr.Body.Bytes(), &ft); err != nil {
		t.Fatalf("unmarshal /fleet/timeline: %v", err)
	}
	if len(ft.Shards) != 1 || ft.Shards[0].Name != "s1" {
		t.Fatalf("timeline shard stamps: %+v", ft.Shards)
	}
	if ft.Timeline.Samples != 3 {
		t.Fatalf("timeline samples = %d, want 3", ft.Timeline.Samples)
	}
	found := false
	for _, sr := range ft.Timeline.Series {
		if sr.Name == "alps_fleet_global_rms_share_error_ewma" {
			found = true
			if len(sr.Points) != 3 {
				t.Fatalf("ewma series has %d points, want 3", len(sr.Points))
			}
		}
	}
	if !found {
		t.Fatal("ewma gauge missing from retained timeline")
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/fleet/timeline?format=csv", nil))
	if !strings.HasPrefix(rr.Body.String(), "name,labels,unix_nano,value\n") {
		t.Fatalf("CSV timeline missing header: %q", rr.Body.String()[:40])
	}

	// History disabled: the endpoint still serves the shard stamps.
	off := NewStack(StackConfig{Node: "coord", Now: clk.Now, HistoryEvery: -1})
	if off.History != nil {
		t.Fatal("negative HistoryEvery should disable the store")
	}
	mux2 := http.NewServeMux()
	off.Mount(mux2)
	rr = httptest.NewRecorder()
	mux2.ServeHTTP(rr, httptest.NewRequest("GET", "/fleet/timeline", nil))
	if rr.Code != 200 {
		t.Fatalf("disabled-history timeline: HTTP %d", rr.Code)
	}
}
