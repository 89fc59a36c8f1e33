package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"alps/internal/coord/coordsim"
	"alps/internal/fleetobs"
	"alps/internal/obs"
	"alps/internal/trace"
)

// newFleetServer builds a coordinator with the fleet observability
// stack attached, on the test's virtual clock.
func newFleetServer(t *testing.T, clk *coordsim.Clock) (*Server, *fleetobs.Stack) {
	t.Helper()
	stack := fleetobs.NewStack(fleetobs.StackConfig{
		Node: "coord", Now: clk.Now, Cooldown: time.Second, Logf: t.Logf,
	})
	s, err := NewServer(ServerConfig{
		TTL:            time.Second,
		RebalanceEvery: 500 * time.Millisecond,
		Clock:          clk.Now,
		Fleet:          stack,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return s, stack
}

// kinds extracts the event kinds in a tracer window.
func kinds(events []fleetobs.Event) map[fleetobs.Kind]int {
	out := make(map[fleetobs.Kind]int)
	for _, e := range events {
		out[e.Kind]++
	}
	return out
}

// TestFleetCounterRegressionClamp: a heartbeat whose cumulative
// consumption rewound (shard restart mid-window) credits the fresh
// cumulative value, never subtracts, clamps pathological negative
// readings at zero, and is flagged on the coordinator counter, the
// status document, and the coordinator's trace.
func TestFleetCounterRegressionClamp(t *testing.T) {
	clk := coordsim.NewClock()
	s, stack := newFleetServer(t, clk)
	reg := mustRegister(t, s, "s1", TaskShare{ID: 1, Share: 100})

	beat(t, s, "s1", reg.Lease, 0, map[int64]float64{1: 5.0})
	if n := s.counterRegressions.get(); n != 0 {
		t.Fatalf("normal beat flagged as regression (%d)", n)
	}
	beat(t, s, "s1", reg.Lease, 0, map[int64]float64{1: 0.25}) // restarted
	// Pathological: a negative cumulative reading clamps to zero.
	beat(t, s, "s1", reg.Lease, 0, map[int64]float64{1: -3})

	s.mu.Lock()
	win := s.shards["s1"].window[1]
	s.mu.Unlock()
	if win != 5.25 {
		t.Fatalf("window = %v, want 5.25 (5.0 + fresh 0.25 + clamped 0)", win)
	}
	if n := s.counterRegressions.get(); n != 2 {
		t.Fatalf("coordinator regressions = %d, want 2", n)
	}
	if st := s.Status(); st.CounterRegressions != 2 {
		t.Fatalf("status regressions = %d, want 2", st.CounterRegressions)
	}
	if k := kinds(stack.Tracer.Snapshot()); k[fleetobs.KindCounterRegression] != 2 {
		t.Fatalf("trace regression events = %d, want 2", k[fleetobs.KindCounterRegression])
	}
}

// TestFleetPublishApplyAckFlow runs a real agent against a fleet-traced
// coordinator and asserts the epoch-causal loop end to end: the pulled
// assignment carries a trace context, the shard's apply span parents on
// it, the next heartbeat's echo produces a coordinator ack with the
// same parent, and the merged two-source trace validates with exactly
// one publish→apply flow.
func TestFleetPublishApplyAckFlow(t *testing.T) {
	clk := coordsim.NewClock()
	srv, stack := newFleetServer(t, clk)
	tr := &handlerTransport{handler: srv}
	shard := newTestShard(map[int64]int64{1: 100, 2: 100})
	shardTracer := fleetobs.NewTracer(fleetobs.TracerConfig{Node: "s1", Now: clk.Now})
	a, err := NewAgent(AgentConfig{
		URL: "http://coord.test", Shard: "s1",
		Tasks:  shard.tasks,
		Gauges: func() ShardGauges { return ShardGauges{} },
		Apply:  shard.apply,
		Period: 100 * time.Millisecond,
		Clock:  clk.Now, Transport: tr,
		Tracer: shardTracer,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}

	a.Step() // register
	beatViaAgentGauges(t, srv, clk, a, shard)
	if a.Epoch() != 1 {
		t.Fatalf("agent did not apply epoch 1 (epoch=%d)", a.Epoch())
	}
	a.Step() // heartbeat echoing the applied trace context → ack

	coordEvents := stack.Tracer.Snapshot()
	var publishSpan uint64
	for _, e := range coordEvents {
		if e.Kind == fleetobs.KindPublish && e.Epoch == 1 {
			publishSpan = e.Span
		}
	}
	if publishSpan == 0 {
		t.Fatalf("no publish event for epoch 1 in %v", kinds(coordEvents))
	}
	var sawAck bool
	for _, e := range coordEvents {
		if e.Kind == fleetobs.KindAck && e.Epoch == 1 {
			sawAck = true
			if e.Parent != publishSpan || e.ParentInc != stack.Tracer.Incarnation() {
				t.Fatalf("ack parent = (%d,%d), want publish span (%d,%d)",
					e.Parent, e.ParentInc, publishSpan, stack.Tracer.Incarnation())
			}
		}
	}
	if !sawAck {
		t.Fatal("no ack event for epoch 1")
	}
	var sawApply bool
	for _, e := range shardTracer.Snapshot() {
		if e.Kind == fleetobs.KindApply && e.Epoch == 1 {
			sawApply = true
			if e.Parent != publishSpan {
				t.Fatalf("apply parent = %d, want publish span %d", e.Parent, publishSpan)
			}
		}
	}
	if !sawApply {
		t.Fatal("no apply event on the shard tracer")
	}

	sources := []trace.FleetSource{
		stack.Tracer.Source(nil, time.Time{}),
		shardTracer.Source(nil, time.Time{}),
	}
	var flows int
	for _, ev := range trace.BuildFleet(sources) {
		if ev.Ph == "f" {
			flows++
		}
	}
	if flows != 1 {
		t.Fatalf("merged trace has %d publish→apply flows, want 1", flows)
	}
	var buf bytes.Buffer
	if err := trace.WriteFleet(&buf, sources, nil); err != nil {
		t.Fatalf("WriteFleet: %v", err)
	}
	if err := trace.Validate(buf.Bytes()); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestFleetDumpCollection: a jump in a shard's heartbeated TraceDumps
// gauge opens a correlated collection, the dump request piggybacks on
// the heartbeat response, the agent uploads its window through
// /coord/v1/dump exactly once, and the bundle merges coordinator +
// shard sources.
func TestFleetDumpCollection(t *testing.T) {
	clk := coordsim.NewClock()
	srv, stack := newFleetServer(t, clk)
	tr := &handlerTransport{handler: srv}
	shard := newTestShard(map[int64]int64{1: 100})
	shardTracer := fleetobs.NewTracer(fleetobs.TracerConfig{Node: "s1", Now: clk.Now})
	var traceDumps int64
	var collects int
	a, err := NewAgent(AgentConfig{
		URL: "http://coord.test", Shard: "s1",
		Tasks:  shard.tasks,
		Gauges: func() ShardGauges { return ShardGauges{TraceDumps: traceDumps} },
		Apply:  shard.apply,
		Period: 100 * time.Millisecond,
		Clock:  clk.Now, Transport: tr,
		Tracer: shardTracer,
		Collect: func(req fleetobs.DumpRequest) (fleetobs.DumpPayload, bool) {
			collects++
			return fleetobs.DumpPayload{Fleet: shardTracer.Snapshot()}, true
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}

	a.Step() // register
	a.Step() // first heartbeat sets the TraceDumps watermark
	if stack.Bundler.Collections() != 0 {
		t.Fatal("watermark heartbeat must not open a collection")
	}

	shardTracer.Emit(fleetobs.Event{Kind: fleetobs.KindApply, Epoch: 1})
	traceDumps = 1 // the shard's recorder fired
	a.Step()       // heartbeat triggers the collection AND uploads in one step
	if stack.Bundler.Collections() != 1 {
		t.Fatalf("collections = %d, want 1", stack.Bundler.Collections())
	}
	if collects != 1 || stack.Bundler.Uploads() != 1 {
		t.Fatalf("collects=%d uploads=%d, want 1/1", collects, stack.Bundler.Uploads())
	}

	a.Step() // same pending request again: deduped by seq
	if collects != 1 || stack.Bundler.Uploads() != 1 {
		t.Fatalf("dump re-uploaded: collects=%d uploads=%d", collects, stack.Bundler.Uploads())
	}

	req, sources, ok := stack.Bundler.Last()
	if !ok || req.Reason != "shard_dump" {
		t.Fatalf("collection = %+v, ok=%v", req, ok)
	}
	if len(sources) != 2 || !sources[0].Coordinator || sources[1].Name != "s1" {
		t.Fatalf("bundle sources wrong: %+v", sources)
	}

	// A lease expiry after the cooldown opens a second, distinct
	// collection with the lease_lost reason.
	clk.Advance(2 * time.Second)
	srv.Tick(clk.Now())
	if stack.Bundler.Collections() != 2 {
		t.Fatalf("collections after lease expiry = %d, want 2", stack.Bundler.Collections())
	}
	if req := stack.Bundler.Pending(); req.Reason != "lease_lost" {
		t.Fatalf("pending reason = %q, want lease_lost", req.Reason)
	}
	if st := srv.Status(); st.LeaseExpiries != 1 || len(st.Shards) != 0 ||
		len(st.Detached) != 1 || st.Detached[0].Shard != "s1" {
		t.Fatalf("status after expiry: %+v", st)
	}
}

// TestFleetDumpLargeUpload: a real flight-recorder window serializes to
// several MB — over the 1MB control-RPC body cap, which must not apply
// to /coord/v1/dump (it did once: every production upload bounced with
// "request body too large" while the tiny test windows sailed through).
func TestFleetDumpLargeUpload(t *testing.T) {
	clk := coordsim.NewClock()
	srv, stack := newFleetServer(t, clk)
	if !stack.Bundler.Open("shard_dump", 0) {
		t.Fatal("Open refused")
	}
	req := stack.Bundler.Pending()

	peer := strings.Repeat("x", 256)
	events := make([]fleetobs.Event, 3*4096)
	for i := range events {
		events[i] = fleetobs.Event{
			Kind: fleetobs.KindApply, At: clk.Now(), Epoch: 1,
			Span: uint64(i + 1), Peer: peer,
		}
	}
	body, err := json.Marshal(fleetobs.DumpPayload{
		Shard: "s1", Seq: req.Seq, Reason: req.Reason, Fleet: events,
	})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if len(body) <= maxBodyBytes {
		t.Fatalf("test payload is only %d bytes; grow it past maxBodyBytes", len(body))
	}

	hr := httptest.NewRequest("POST", "http://coord.test/coord/v1/dump", bytes.NewReader(body))
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, hr)
	if rr.Code != 200 {
		t.Fatalf("dump upload = %d %s, want 200", rr.Code, rr.Body.String())
	}
	if stack.Bundler.Uploads() != 1 {
		t.Fatalf("uploads = %d, want 1", stack.Bundler.Uploads())
	}
}

// newMetricsServer builds a coordinator exporting onto a registry of
// its own, on the test's virtual clock (TTL 1s).
func newMetricsServer(t *testing.T, clk *coordsim.Clock) (*Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	s, err := NewServer(ServerConfig{
		TTL:            time.Second,
		RebalanceEvery: 500 * time.Millisecond,
		Clock:          clk.Now,
		Metrics:        reg,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return s, reg
}

// scrape renders a registry in Prometheus text format.
func scrape(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return buf.String()
}

// commitWeights commits one epoch through the live weight table.
func commitWeights(t *testing.T, s *Server) {
	t.Helper()
	if _, err := s.SetWeights([]TaskShare{{ID: 1, Share: 1}}); err != nil {
		t.Fatalf("SetWeights: %v", err)
	}
}

// TestFleetPropagationAndLeases: each commit is timed to each shard's
// first heartbeat acking it (one ack covering two commits times both,
// a repeated ack times nothing), and an expired lease moves the shard
// to the detached list and counts on both the document and the
// registry.
func TestFleetPropagationAndLeases(t *testing.T) {
	clk := coordsim.NewClock()
	s, reg := newMetricsServer(t, clk)
	r := mustRegister(t, s, "s1", TaskShare{ID: 1, Share: 100})

	commitWeights(t, s) // epoch 1
	clk.Advance(250 * time.Millisecond)
	beat(t, s, "s1", r.Lease, 1, nil)
	beat(t, s, "s1", r.Lease, 1, nil) // re-ack: no second observation
	clk.Advance(100 * time.Millisecond)
	commitWeights(t, s) // epoch 2
	commitWeights(t, s) // epoch 3
	clk.Advance(50 * time.Millisecond)
	beat(t, s, "s1", r.Lease, 3, nil)

	st := s.Status()
	if st.PropagationCount != 3 || math.Abs(st.PropagationMaxSec-0.25) > 1e-9 {
		t.Fatalf("propagation count=%d max=%v, want 3 and 0.25s", st.PropagationCount, st.PropagationMaxSec)
	}

	clk.Advance(2 * time.Second)
	s.Tick(clk.Now())
	st = s.Status()
	if len(st.Shards) != 0 || len(st.Detached) != 1 || st.Detached[0].Shard != "s1" ||
		st.Detached[0].AckEpoch != 3 || st.LeaseExpiries != 1 {
		t.Fatalf("after expiry: shards=%+v detached=%+v expiries=%d", st.Shards, st.Detached, st.LeaseExpiries)
	}
	text := scrape(t, reg)
	for _, want := range []string{
		"alps_fleet_global_rms_share_error ",
		"alps_fleet_epoch_propagation_seconds_count 3",
		`alps_fleet_lease_age_seconds{shard="s1"} +Inf`,
		`alps_fleet_shard_stale{shard="s1"} 1`,
		"alps_fleet_shards_detached 1",
		"alps_coord_lease_expiries_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Re-registering returns the shard to the live list.
	mustRegister(t, s, "s1", TaskShare{ID: 1, Share: 100})
	if st := s.Status(); len(st.Shards) != 1 || len(st.Detached) != 0 {
		t.Fatalf("after re-register: shards=%d detached=%d, want 1/0", len(st.Shards), len(st.Detached))
	}
}

// gaugeBeater returns a heartbeat function for s that registers each
// shard on its first beat and reports the given gauges.
func gaugeBeater(t *testing.T, s *Server) func(name string, epoch uint64, rms float64, degraded bool) {
	leases := map[string]string{}
	return func(name string, epoch uint64, rms float64, degraded bool) {
		t.Helper()
		if leases[name] == "" {
			leases[name] = mustRegister(t, s, name, TaskShare{ID: 1, Share: 100}).Lease
		}
		if _, err := s.Heartbeat(HeartbeatRequest{Shard: name, Lease: leases[name], Epoch: epoch,
			Gauges: ShardGauges{RMSShareError: rms, Degraded: degraded}}); err != nil {
			t.Fatalf("heartbeat %s: %v", name, err)
		}
	}
}

// TestFleetStaleAndDetachedShards: a leased shard silent past its lease
// expiry is stale until the next tick expires it — flagged in its row and
// per-shard gauge, excluded from the degraded count — and an expired
// shard is detached. A heartbeat brings a stale shard back.
func TestFleetStaleAndDetachedShards(t *testing.T) {
	clk := coordsim.NewClock()
	s, reg := newMetricsServer(t, clk)
	hb := gaugeBeater(t, s)
	for i := 0; i < 9; i++ {
		commitWeights(t, s)
	}

	hb("detached", 9, 0.5, false)
	clk.Advance(1500 * time.Millisecond)
	if n := s.ExpireLeases(clk.Now()); n != 1 {
		t.Fatalf("expired %d leases, want 1", n)
	}
	hb("isolated", 7, 0.25, false)
	hb("silent-degraded", 9, 0.1, true)
	clk.Advance(2500 * time.Millisecond)
	hb("fresh-degraded", 9, 0.1, true)
	clk.Advance(500 * time.Millisecond)
	hb("live", 9, 0.01, false)

	st := s.Status()
	stale := map[string]bool{}
	for _, row := range st.Shards {
		stale[row.Shard] = row.Stale
	}
	want := map[string]bool{"isolated": true, "silent-degraded": true, "fresh-degraded": false, "live": false}
	if len(stale) != len(want) {
		t.Fatalf("leased rows %v, want %v", stale, want)
	}
	for name, w := range want {
		if stale[name] != w {
			t.Errorf("%s: stale = %v, want %v", name, stale[name], w)
		}
	}
	if len(st.Detached) != 1 || st.Detached[0].Shard != "detached" || st.Detached[0].Stale {
		t.Errorf("detached rows %+v, want one non-stale row for %q", st.Detached, "detached")
	}

	text := scrape(t, reg)
	for _, line := range []string{
		"alps_fleet_shards_stale 2",
		"alps_fleet_shards_degraded 1", // silent-degraded is stale, not degraded
		"alps_fleet_shards_detached 1",
		`alps_fleet_last_heartbeat_age_seconds{shard="detached"} 4.5`,
		`alps_fleet_lease_age_seconds{shard="isolated"} 3`,
		`alps_fleet_shard_stale{shard="detached"} 1`,
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("metrics missing %q", line)
		}
	}

	hb("isolated", 9, 0.25, false)
	if text := scrape(t, reg); !strings.Contains(text, "alps_fleet_shards_stale 1\n") {
		t.Error("heartbeat did not clear the stale flag")
	}
}

// TestFleetShardStaleness: every shard-sourced gauge keeps its value
// and carries the heartbeat-age stamp that tells live from frozen — an
// isolated (silent) shard's values are marked stale, a live shard's
// are not.
func TestFleetShardStaleness(t *testing.T) {
	clk := coordsim.NewClock()
	s, reg := newMetricsServer(t, clk)
	hb := gaugeBeater(t, s)
	for i := 0; i < 9; i++ {
		commitWeights(t, s)
	}

	hb("isolated", 7, 0.25, false)
	// The isolated shard goes silent for three lease TTLs; the live one
	// keeps beating.
	for i := 0; i < 3; i++ {
		clk.Advance(time.Second)
		hb("live", 9, 0.01, false)
	}

	text := scrape(t, reg)
	for _, tc := range []struct {
		metric string
		want   string
	}{
		// The staleness stamp: fresh beside the live shard's gauges,
		// three TTLs old beside the isolated shard's.
		{`alps_fleet_last_heartbeat_age_seconds{shard="live"}`, "0"},
		{`alps_fleet_last_heartbeat_age_seconds{shard="isolated"}`, "3"},
		// The values themselves survive isolation (frozen)...
		{`alps_fleet_shard_rms_share_error{shard="isolated"}`, "0.25"},
		{`alps_fleet_shard_ack_epoch{shard="isolated"}`, "7"},
		{`alps_fleet_shard_rms_share_error{shard="live"}`, "0.01"},
		{`alps_fleet_shard_ack_epoch{shard="live"}`, "9"},
		// ...but the stale flag distinguishes them.
		{`alps_fleet_shard_stale{shard="isolated"}`, "1"},
		{`alps_fleet_shard_stale{shard="live"}`, "0"},
	} {
		if line := tc.metric + " " + tc.want; !strings.Contains(text, line+"\n") {
			t.Errorf("metrics missing %q", line)
		}
	}
}

// TestFleetStateConcurrent: registrations, heartbeats, rebalance and
// expiry ticks, and scrapes of Status and the registry reach the fleet
// state from separate goroutines, as the HTTP handlers, Run and the
// scrapers do under "alps coord". Meant for -race.
func TestFleetStateConcurrent(t *testing.T) {
	clk := coordsim.NewClock()
	s, reg := newMetricsServer(t, clk)
	var wg sync.WaitGroup
	for i := int64(1); i <= 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("s%d", i)
			for j := 0; j < 50; j++ {
				r, err := s.Register(RegisterRequest{Shard: name, Tasks: []TaskShare{{ID: i, Share: 100}}})
				if err != nil {
					t.Errorf("register %s: %v", name, err)
					return
				}
				// A tick may expire the fresh lease; that error is expected.
				_, _ = s.Heartbeat(HeartbeatRequest{Shard: name, Lease: r.Lease, Epoch: s.Epoch(),
					Gauges: ShardGauges{Consumed: map[int64]float64{i: float64(j) * float64(i)}}})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			clk.Advance(600 * time.Millisecond)
			s.Tick(clk.Now())
			_ = s.Status()
			_ = reg.Snapshot()
		}
	}()
	wg.Wait()
	if st := s.Status(); len(st.Shards)+len(st.Detached) != 3 {
		t.Fatalf("shards=%d detached=%d, want 3 in all", len(st.Shards), len(st.Detached))
	}
}

// TestFleetStallAndExpiryOrder: shards that stall or expire in the same
// tick are traced in name order, so a fleet trace is reproducible run
// to run. Each case runs on 20 fresh servers, because map order would
// only sometimes come out sorted.
func TestFleetStallAndExpiryOrder(t *testing.T) {
	names := []string{"s3", "s1", "s2"}
	peers := func(events []fleetobs.Event, kind fleetobs.Kind) []string {
		var out []string
		for _, e := range events {
			if e.Kind == kind {
				out = append(out, e.Peer)
			}
		}
		return out
	}
	want := "[s1 s2 s3]"
	for run := 0; run < 20; run++ {
		// Stall: every shard keeps acking epoch 0 after epoch 1 commits,
		// and all three cross the stall bound in the same tick.
		clk := coordsim.NewClock()
		s, stack := newFleetServer(t, clk)
		for _, name := range names {
			mustRegister(t, s, name, TaskShare{ID: 1, Share: 100})
		}
		if _, err := s.SetWeights([]TaskShare{{ID: 1, Share: 1}}); err != nil {
			t.Fatal(err)
		}
		s.checkStalls(clk.Now())
		clk.Advance(4 * s.cfg.RebalanceEvery)
		s.checkStalls(clk.Now())
		if got := fmt.Sprint(peers(stack.Tracer.Snapshot(), fleetobs.KindEpochStall)); got != want {
			t.Fatalf("run %d: stall events name %s, want %s", run, got, want)
		}

		// Expiry: all three leases lapse in the same tick.
		clk = coordsim.NewClock()
		s, stack = newFleetServer(t, clk)
		for _, name := range names {
			mustRegister(t, s, name, TaskShare{ID: 1, Share: 100})
		}
		clk.Advance(2 * s.cfg.TTL)
		if n := s.ExpireLeases(clk.Now()); n != 3 {
			t.Fatalf("run %d: %d leases expired, want 3", run, n)
		}
		if got := fmt.Sprint(peers(stack.Tracer.Snapshot(), fleetobs.KindLeaseExpire)); got != want {
			t.Fatalf("run %d: expiry events name %s, want %s", run, got, want)
		}
	}
}
