package coord

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"alps/internal/coord/coordsim"
	"alps/internal/obs"
	"alps/internal/tshist"
)

// TestFleetCounterRegressionClamp: a heartbeat whose cumulative
// consumption rewound (shard restart mid-window) credits the fresh
// cumulative value, never subtracts, clamps pathological negative
// readings at zero, and is flagged on the coordinator counter, the
// status document, and /metrics.
func TestFleetCounterRegressionClamp(t *testing.T) {
	clk := coordsim.NewClock()
	s, reg := newMetricsServer(t, clk)
	r := mustRegister(t, s, "s1", TaskShare{ID: 1, Share: 100})

	beat(t, s, "s1", r.Lease, 0, map[int64]float64{1: 5.0})
	if n := s.counterRegressions.get(); n != 0 {
		t.Fatalf("normal beat flagged as regression (%d)", n)
	}
	beat(t, s, "s1", r.Lease, 0, map[int64]float64{1: 0.25}) // restarted
	// Pathological: a negative cumulative reading clamps to zero.
	beat(t, s, "s1", r.Lease, 0, map[int64]float64{1: -3})

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
	if text := scrape(t, reg); !strings.Contains(text, "alps_coord_counter_regressions_total 2\n") {
		t.Fatal("metrics missing alps_coord_counter_regressions_total 2")
	}
}

// TestFleetAnomaliesOnStatusAndTimeline pins two rows of the fleet
// diagnosis table on a coordsim fleet: an epoch stall is the shard's
// alps_fleet_shard_ack_epoch staying below alps_coord_epoch in
// /fleet/timeline, and a shard whose flight recorder fired shows a
// rising trace_dumps in its status row. Shard "stuck" fails every
// Apply; shard "healthy" catches up.
func TestFleetAnomaliesOnStatusAndTimeline(t *testing.T) {
	const period = 500 * time.Millisecond
	clk := coordsim.NewClock()
	reg := obs.NewRegistry()
	hist := tshist.New(tshist.Config{Source: reg, Every: period / 5, Now: clk.Now})
	srv, err := NewServer(ServerConfig{
		TTL:            time.Second,
		RebalanceEvery: period,
		Clock:          clk.Now,
		Metrics:        reg,
		History:        hist,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	tr := &handlerTransport{handler: srv}
	var dumps int64
	agent := func(name string, apply func(Assignment) error, gauges func() ShardGauges) *Agent {
		a, err := NewAgent(AgentConfig{
			URL: "http://coord.test", Shard: name,
			Tasks:  func() []TaskShare { return []TaskShare{{ID: 1, Share: 100}} },
			Gauges: gauges,
			Apply:  apply,
			Period: period / 5,
			Clock:  clk.Now, Transport: tr,
			Logf: t.Logf,
		})
		if err != nil {
			t.Fatalf("NewAgent %s: %v", name, err)
		}
		return a
	}
	healthy := agent("healthy", newTestShard(map[int64]int64{1: 100}).apply,
		func() ShardGauges { return ShardGauges{} })
	stuck := agent("stuck", func(Assignment) error { return errors.New("scheduler refused") },
		func() ShardGauges { return ShardGauges{TraceDumps: dumps} })

	healthy.Step()
	stuck.Step()
	commitWeights(t, srv) // epoch 1, which only the healthy shard applies
	var rows []int64
	for i := 0; i < 25; i++ { // 5 rebalance periods
		clk.Advance(period / 5)
		if i == 10 {
			dumps = 2 // the stuck shard's recorder fired twice
		}
		srv.Tick(clk.Now())
		healthy.Step()
		stuck.Step()
		for _, row := range srv.Status().Shards {
			if row.Shard == "stuck" {
				rows = append(rows, row.Gauges.TraceDumps)
			}
		}
	}
	if len(rows) == 0 || rows[0] != 0 || rows[len(rows)-1] != 2 {
		t.Errorf("stuck shard's status row trace_dumps went %v, want 0 rising to 2", rows)
	}
	text := scrape(t, reg)
	for _, line := range []string{"alps_coord_registers_total 2", "alps_coord_weight_updates_total 1"} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("metrics missing %q", line)
		}
	}

	rr := httptest.NewRecorder()
	hist.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/fleet/timeline", nil))
	var tl tshist.Timeline
	if err := json.Unmarshal(rr.Body.Bytes(), &tl); err != nil {
		t.Fatalf("unmarshal /fleet/timeline: %v", err)
	}
	series := make(map[string][]tshist.Point)
	for _, sr := range tl.Series {
		series[sr.Name+sr.Labels] = sr.Points
	}
	epoch := series["alps_coord_epoch"]
	if len(epoch) == 0 || epoch[len(epoch)-1].Value != 1 {
		t.Fatalf("alps_coord_epoch series = %v, want it to end at 1", epoch)
	}
	behind := func(shard string) time.Duration {
		acks := series[fmt.Sprintf(`alps_fleet_shard_ack_epoch{shard=%q}`, shard)]
		if len(acks) != len(epoch) {
			t.Fatalf("%s: %d ack points against %d epoch points", shard, len(acks), len(epoch))
		}
		var first, last int64
		for i, p := range acks {
			if p.Value < epoch[i].Value {
				if first == 0 {
					first = p.UnixNano
				}
				last = p.UnixNano
			}
		}
		return time.Duration(last - first)
	}
	if d := behind("stuck"); d <= 3*period {
		t.Errorf("stuck shard's ack epoch was behind alps_coord_epoch for %v, want over 3 rebalance periods (%v)", d, 3*period)
	}
	if d := behind("healthy"); d >= period {
		t.Errorf("healthy shard's ack epoch was behind for %v, want it caught up within one period", d)
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
// tick are reported in name order, in status rows and lease-expiry log
// lines, so the coordinator's surfaces are reproducible run to run. Each
// case runs on 20 fresh servers, because map order would only sometimes
// come out sorted.
func TestFleetStallAndExpiryOrder(t *testing.T) {
	names := []string{"s3", "s1", "s2"}
	want := "[s1 s2 s3]"
	for run := 0; run < 20; run++ {
		clk := coordsim.NewClock()
		var expired []string
		s, err := NewServer(ServerConfig{
			TTL:            time.Second,
			RebalanceEvery: 500 * time.Millisecond,
			Clock:          clk.Now,
			Logf: func(format string, args ...any) {
				if format == "coord: lease expired, shard %s declared dead" {
					expired = append(expired, args[0].(string))
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		leases := make(map[string]string)
		for _, name := range names {
			leases[name] = mustRegister(t, s, name, TaskShare{ID: 1, Share: 100}).Lease
		}

		// Stall: epoch 1 commits and every shard keeps acking epoch 0.
		commitWeights(t, s)
		for _, name := range names {
			beat(t, s, name, leases[name], 0, nil)
		}
		st := s.Status()
		var stalled []string
		for _, row := range st.Shards {
			if row.AckEpoch < st.Epoch {
				stalled = append(stalled, row.Shard)
			}
		}
		if got := fmt.Sprint(stalled); got != want {
			t.Fatalf("run %d: stalled status rows name %s, want %s", run, got, want)
		}

		// Expiry: all three leases lapse in the same tick.
		clk.Advance(2 * s.cfg.TTL)
		if n := s.ExpireLeases(clk.Now()); n != 3 {
			t.Fatalf("run %d: %d leases expired, want 3", run, n)
		}
		if got := fmt.Sprint(expired); got != want {
			t.Fatalf("run %d: expiry log lines name %s, want %s", run, got, want)
		}
		var detached []string
		for _, row := range s.Status().Detached {
			detached = append(detached, row.Shard)
		}
		if got := fmt.Sprint(detached); got != want {
			t.Fatalf("run %d: detached rows name %s, want %s", run, got, want)
		}
	}
}
