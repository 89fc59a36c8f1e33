package sim

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"alps/internal/core"
	"alps/internal/obs"
	"alps/internal/trace"
)

// captureFaultedRun drives a workload whose task 1 process exits mid-run
// (at 1.5 s) under tracing and returns the captured event stream plus
// the registrations, for the trace-validity and replay-equivalence tests.
func captureFaultedRun(t *testing.T) ([]obs.Event, []AlpsTask) {
	t.Helper()
	k := NewKernel()
	var tasks []AlpsTask
	for i, share := range []int64{1, 2, 3} {
		b := Spin()
		if i == 1 {
			b = spinUntil(1500*time.Millisecond, Action{Exit: true})
		}
		tasks = append(tasks, AlpsTask{ID: core.TaskID(i), Share: share, Pids: []PID{k.SpawnStopped("w", 0, b)}})
	}
	io := k.SpawnStopped("io", 0, &PeriodicIO{Exec: 2 * time.Millisecond, Wait: 30 * time.Millisecond})
	tasks = append(tasks, AlpsTask{ID: 3, Share: 2, Pids: []PID{io}})

	log := obs.NewEventLog()
	if _, err := StartALPS(k, AlpsConfig{
		Quantum:  10 * time.Millisecond,
		Cost:     PaperCosts(),
		Observer: log,
	}, tasks); err != nil {
		t.Fatal(err)
	}
	k.Run(4 * time.Second)
	return log.Events(), tasks
}

// TestSimChromeTraceWellFormed is the simulator half of the acceptance
// check that both substrates emit well-formed Chrome trace JSON: every
// event carries ts/ph/pid/tid and the spans of each track are properly
// nested, with all five control phases present on the phases track.
func TestSimChromeTraceWellFormed(t *testing.T) {
	events, _ := captureFaultedRun(t)
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, events, map[string]any{"substrate": "sim"}); err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(buf.Bytes()); err != nil {
		t.Fatalf("simulator trace fails validation: %v", err)
	}

	built := trace.Build(events)
	spans := make(map[string]int)
	for _, ce := range built {
		if ce.Ph == "X" {
			spans[ce.Name]++
		}
	}
	for _, p := range obs.Phases() {
		if spans[p.String()] == 0 {
			t.Errorf("no %q phase span in the simulator trace", p)
		}
	}
	if spans["quantum"] == 0 || spans["eligible"] == 0 {
		t.Errorf("span counts = %v, want quantum and eligibility tracks populated", spans)
	}
}

// transitionEdge is one eligibility flip, in the canonical form shared by
// the trace's span track and the replayed decision stream.
type transitionEdge struct {
	Tick     int64
	Eligible bool
	Reason   string
}

// TestSimTraceSpansMatchReplay is the replay-equivalence property for the
// span track: feeding the captured trace's measure/dead events back
// through core.Replay yields, per task, exactly the eligibility edges the
// trace's eligibility spans record. The visual artifact and the replayable
// artifact are the same trace.
func TestSimTraceSpansMatchReplay(t *testing.T) {
	events, tasks := captureFaultedRun(t)

	// Edges as drawn: each eligibility span opens at its start_tick and
	// closes at its end_tick. Spans cut short by the stream ending (no
	// end_tick) contribute only their opening edge; spans closed by task
	// death have no matching Transition event and contribute only their
	// opening edge too.
	fromSpans := make(map[int64][]transitionEdge)
	for _, ce := range trace.Build(events) {
		if ce.Name != "eligible" || ce.Ph != "X" {
			continue
		}
		if tick, ok := ce.Args["start_tick"].(int64); ok {
			fromSpans[ce.TID] = append(fromSpans[ce.TID],
				transitionEdge{tick, true, ce.Args["start_reason"].(string)})
		}
		if tick, ok := ce.Args["end_tick"].(int64); ok {
			if reason := ce.Args["end_reason"].(string); reason != "dead" {
				fromSpans[ce.TID] = append(fromSpans[ce.TID],
					transitionEdge{tick, false, reason})
			}
		}
	}

	var reg []core.ReplayTask
	for _, tk := range tasks {
		reg = append(reg, core.ReplayTask{ID: tk.ID, Share: tk.Share})
	}
	replayed, err := core.Replay(core.Config{Quantum: 10 * time.Millisecond}, reg, events)
	if err != nil {
		t.Fatal(err)
	}
	fromReplay := make(map[int64][]transitionEdge)
	for _, e := range core.TransitionsOf(replayed) {
		fromReplay[e.Task] = append(fromReplay[e.Task],
			transitionEdge{e.Tick, e.Eligible, e.Reason.String()})
	}

	if len(fromSpans) == 0 {
		t.Fatal("trace contains no eligibility spans")
	}
	if !reflect.DeepEqual(fromSpans, fromReplay) {
		for id := range fromReplay {
			if !reflect.DeepEqual(fromSpans[id], fromReplay[id]) {
				t.Errorf("task %d edges differ:\n  spans:  %v\n  replay: %v",
					id, fromSpans[id], fromReplay[id])
			}
		}
	}
}

// TestSimDriftAnomalyAutoDump is the fault anomaly e2e on the simulator
// substrate: one of two equal-share processes blocks for good at 1 s,
// which starves its task, the online auditor's windowed share error
// crosses the drift threshold, and its OnDrift hook dumps the
// flight-recorder window — which must contain the offending cycles and
// render as a valid Chrome trace.
func TestSimDriftAnomalyAutoDump(t *testing.T) {
	k := NewKernel()
	blockAt := 1 * time.Second
	tasks := []AlpsTask{
		{ID: 0, Share: 1, Pids: []PID{k.SpawnStopped("w", 0, Spin())}},
		{ID: 1, Share: 1, Pids: []PID{k.SpawnStopped("w", 0, spinUntil(blockAt, Action{Block: true}))}},
	}

	var dumps []trace.Dump
	rec := trace.NewRecorder(trace.RecorderConfig{
		OnDump: func(d trace.Dump) { dumps = append(dumps, d) },
	})
	aud := trace.NewAuditor(trace.AuditorConfig{
		Window:         4,
		DriftThreshold: 0.2,
		OnDrift:        func(float64) { rec.Trigger("share_drift") },
	})
	if _, err := StartALPS(k, AlpsConfig{
		Quantum:  10 * time.Millisecond,
		Cost:     PaperCosts(),
		Observer: obs.Multi(rec, aud),
		OnCycle:  aud.OnCycle,
	}, tasks); err != nil {
		t.Fatal(err)
	}
	k.Run(3 * time.Second)

	if len(dumps) != 1 {
		t.Fatalf("flight recorder dumped %d times, want 1 (drift past the block)", len(dumps))
	}
	d := dumps[0]
	if d.Reason != "share_drift" {
		t.Errorf("dump reason = %q, want share_drift", d.Reason)
	}
	// The window must cover the offending cycles: quanta after the block
	// took effect, including the starved task's measurements.
	var pastBlock, starvedMeasures int
	for _, e := range d.Events {
		if e.At >= blockAt {
			pastBlock++
			if e.Kind == obs.KindMeasure && e.Task == 1 {
				starvedMeasures++
			}
		}
	}
	if pastBlock == 0 {
		t.Error("dump window contains no events after the block")
	}
	if starvedMeasures == 0 {
		t.Error("dump window contains no measurements of the starved task")
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, d.Events, nil); err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(buf.Bytes()); err != nil {
		t.Fatalf("dumped window fails validation: %v", err)
	}
}
