package trace

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"alps/internal/obs"
)

func ev(kind obs.Kind, tick int64, at time.Duration) obs.Event {
	return obs.Event{Kind: kind, Tick: tick, Task: -1, At: at}
}

func TestRecorderRingBounds(t *testing.T) {
	r := NewRecorder(RecorderConfig{Events: 8})
	for i := 0; i < 20; i++ {
		r.Observe(ev(obs.KindQuantumStart, int64(i), time.Duration(i)*time.Millisecond))
	}
	snap := r.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("snapshot length = %d, want 8", len(snap))
	}
	for i, e := range snap {
		if want := int64(12 + i); e.Tick != want {
			t.Errorf("snap[%d].Tick = %d, want %d (oldest-first, newest kept)", i, e.Tick, want)
		}
	}
}

// TestRecorderObserveZeroAllocs: the recorder sits on the control loop's
// observer fan-out, once per event, so recording into a full ring must
// not allocate.
func TestRecorderObserveZeroAllocs(t *testing.T) {
	r := NewRecorder(RecorderConfig{Events: 64})
	e := ev(obs.KindMeasure, 0, 0)
	for i := 0; i < 64; i++ {
		r.Observe(e)
	}
	if n := testing.AllocsPerRun(1000, func() { e.Tick++; r.Observe(e) }); n != 0 {
		t.Fatalf("Observe on a full ring: %v allocs, want 0", n)
	}
}

func TestRecorderAutoTriggers(t *testing.T) {
	var dumps []Dump
	r := NewRecorder(RecorderConfig{Events: 64, OnDump: func(d Dump) { dumps = append(dumps, d) }})
	r.Observe(ev(obs.KindQuantumStart, 1, 0))
	r.Observe(obs.Event{Kind: obs.KindDead, Tick: 1, Task: 7, At: time.Millisecond})
	if len(dumps) != 1 || dumps[0].Reason != "process_drop" {
		t.Fatalf("dumps after dead event = %+v", dumps)
	}
	if len(dumps[0].Events) != 2 {
		t.Errorf("dump window = %d events, want 2", len(dumps[0].Events))
	}

	// Past the cooldown, an overload degradation triggers again.
	r.Observe(obs.Event{
		Kind: obs.KindDegrade, Reason: obs.ReasonOverload, Tick: 2, Task: -1,
		At: DefaultCooldown + 2*time.Millisecond,
	})
	if len(dumps) != 2 || dumps[1].Reason != "overload_degrade" {
		t.Fatalf("dumps after degrade = %+v", dumps)
	}
	// Recovery events do not trigger.
	r.Observe(obs.Event{
		Kind: obs.KindDegrade, Reason: obs.ReasonRecovered, Tick: 3, Task: -1,
		At: 3 * DefaultCooldown,
	})
	if len(dumps) != 2 {
		t.Errorf("recovery degrade event dumped: %+v", dumps[2:])
	}
}

func TestRecorderCooldown(t *testing.T) {
	var dumps int
	r := NewRecorder(RecorderConfig{Events: 16, Cooldown: time.Second, OnDump: func(Dump) { dumps++ }})
	r.Observe(ev(obs.KindQuantumStart, 1, 10*time.Millisecond))
	if !r.Trigger("lateness_spike") {
		t.Fatal("first trigger suppressed")
	}
	r.Observe(ev(obs.KindQuantumStart, 2, 20*time.Millisecond))
	if r.Trigger("lateness_spike") {
		t.Error("trigger inside cooldown was not suppressed")
	}
	r.Observe(ev(obs.KindQuantumStart, 3, 1500*time.Millisecond))
	if !r.Trigger("share_drift") {
		t.Error("trigger after cooldown suppressed")
	}
	if dumps != 2 {
		t.Errorf("dumps = %d, want 2", dumps)
	}
	if r.suppressed.Load() != 1 {
		t.Errorf("suppressed = %d, want 1", r.suppressed.Load())
	}
}

func TestRecorderEmptyRingNoDump(t *testing.T) {
	r := NewRecorder(RecorderConfig{OnDump: func(Dump) { t.Error("dumped an empty ring") }})
	if r.Trigger("manual") {
		t.Error("Trigger on empty ring reported a dump")
	}
}

func TestRecorderServeHTTP(t *testing.T) {
	r := NewRecorder(RecorderConfig{Events: 64})
	for _, e := range sampleStream() {
		r.Observe(e)
	}
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	if err := Validate(rec.Body.Bytes()); err != nil {
		t.Fatalf("/debug/trace response invalid: %v", err)
	}
}

func TestRecorderMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRecorder(RecorderConfig{Events: 4})
	r.Register(reg)
	r.Observe(ev(obs.KindQuantumStart, 1, 0))
	r.Trigger("manual")
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"alps_trace_events_total 1",
		"alps_trace_dumps_total 1",
		"alps_trace_dumps_suppressed_total 0",
		"alps_trace_ring_capacity_events 4",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, sb.String())
		}
	}
}

func TestFileDumper(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	f, err := NewFileDumper(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wrote []string
	f.OnWrite = func(path string, d Dump, err error) {
		if err != nil {
			t.Errorf("write %s: %v", path, err)
		}
		wrote = append(wrote, path)
	}
	f.Dump(Dump{Reason: "lateness_spike", Seq: 1, Events: sampleStream()})
	f.Close()
	if len(wrote) != 1 {
		t.Fatalf("wrote %d files, want 1", len(wrote))
	}
	want := filepath.Join(dir, "trace-lateness_spike-0001.json")
	if wrote[0] != want {
		t.Errorf("path = %s, want %s", wrote[0], want)
	}
	data, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(data); err != nil {
		t.Fatalf("dumped file invalid: %v", err)
	}
}
