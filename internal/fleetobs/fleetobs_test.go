package fleetobs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"alps/internal/coord/coordsim"
	"alps/internal/obs"
	"alps/internal/trace"
	"alps/internal/tshist"
)

func TestTracerRingAndSpans(t *testing.T) {
	clk := coordsim.NewClock()
	tr := NewTracer(TracerConfig{Node: "s1", Now: clk.Now})
	if tr.Incarnation() != uint64(clk.Now().UnixNano()) {
		t.Fatalf("incarnation not taken from clock: %d", tr.Incarnation())
	}
	const total = TracerEvents + 2
	for i := 0; i < total; i++ {
		clk.Advance(time.Millisecond)
		tr.Emit(Event{Kind: KindPublish, Epoch: uint64(i)})
	}
	got := tr.Snapshot()
	if len(got) != TracerEvents {
		t.Fatalf("ring should hold %d events, got %d", TracerEvents, len(got))
	}
	// Oldest first, and the two oldest were evicted.
	if got[0].Epoch != 2 || got[len(got)-1].Epoch != total-1 {
		t.Fatalf("ring order wrong: epochs %d..%d", got[0].Epoch, got[len(got)-1].Epoch)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Span <= got[i-1].Span {
			t.Fatalf("span ids not monotone: %d then %d", got[i-1].Span, got[i].Span)
		}
		if got[i].Incarnation != tr.Incarnation() {
			t.Fatalf("event missing incarnation")
		}
	}
	if tr.Events() != total {
		t.Fatalf("total events = %d, want %d", tr.Events(), total)
	}
}

func TestTracerSourceRoundTrip(t *testing.T) {
	clk := coordsim.NewClock()
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

func TestBundlerCollectionFlow(t *testing.T) {
	clk := coordsim.NewClock()
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

// TestStackMount: the stack serves the correlated bundle and the
// retained timeline; the fleet metrics and health live on the
// coordinator's own /metrics and /healthz.
func TestStackMount(t *testing.T) {
	clk := coordsim.NewClock()
	s := NewStack(StackConfig{Node: "coord", Now: clk.Now})
	mux := http.NewServeMux()
	s.Mount(mux)
	for path, want := range map[string]int{
		"/debug/fleet-trace": 404, // no collection yet
		"/fleet/timeline":    200,
		"/fleet/metrics":     404,
		"/fleet/healthz":     404,
	} {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != want {
			t.Errorf("GET %s = %d, want %d", path, rr.Code, want)
		}
	}
}

// TestStackTimeline: the stack retains the history of every gauge on
// the registry it was given and serves it at /fleet/timeline, JSON and
// CSV; with history disabled the route is not mounted.
func TestStackTimeline(t *testing.T) {
	clk := coordsim.NewClock()
	reg := obs.NewRegistry()
	v := 0.0
	reg.GaugeFunc("alps_coord_epoch", "the registry owner's gauge", func() float64 { return v })
	s := NewStack(StackConfig{Node: "coord", Metrics: reg, Now: clk.Now, HistoryEvery: time.Second})
	for i := 0; i < 3; i++ {
		v = float64(i)
		s.History.Sample(clk.Now())
		clk.Advance(time.Second)
	}
	mux := http.NewServeMux()
	s.Mount(mux)

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/fleet/timeline", nil))
	var tl tshist.Timeline
	if err := json.Unmarshal(rr.Body.Bytes(), &tl); err != nil {
		t.Fatalf("unmarshal /fleet/timeline: %v", err)
	}
	if tl.Samples != 3 {
		t.Fatalf("timeline samples = %d, want 3", tl.Samples)
	}
	found := false
	for _, sr := range tl.Series {
		if sr.Name == "alps_coord_epoch" {
			found = true
			if len(sr.Points) != 3 || sr.Points[2].Value != 2 {
				t.Fatalf("epoch series = %+v, want 3 points ending at 2", sr.Points)
			}
		}
	}
	if !found {
		t.Fatal("registry gauge missing from retained timeline")
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/fleet/timeline?format=csv", nil))
	if !strings.HasPrefix(rr.Body.String(), "name,labels,unix_nano,value\n") {
		t.Fatalf("CSV timeline missing header: %q", rr.Body.String()[:40])
	}

	off := NewStack(StackConfig{Node: "coord", Now: clk.Now, HistoryEvery: -1})
	if off.History != nil {
		t.Fatal("negative HistoryEvery should disable the store")
	}
	mux2 := http.NewServeMux()
	off.Mount(mux2)
	rr = httptest.NewRecorder()
	mux2.ServeHTTP(rr, httptest.NewRequest("GET", "/fleet/timeline", nil))
	if rr.Code != 404 {
		t.Fatalf("disabled-history timeline: HTTP %d, want 404", rr.Code)
	}
}
