package osproc

import (
	"bytes"
	"testing"

	"alps/internal/obs"
	"alps/internal/trace"
)

// TestRunnerChromeTraceWellFormed is the real-OS half of the acceptance
// check that both substrates emit well-formed Chrome trace JSON: a
// fault-injected run — slow reads, a mid-run process death — captured
// through the stamped observer must validate, with all five control
// phases present and the runner's wall-clock timestamps monotone.
func TestRunnerChromeTraceWellFormed(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1, State: 'R', Rate: 1})
	fs.AddProc(FaultProc{PID: 20, Start: 1, State: 'R', Rate: 0.7})
	fs.AddProc(FaultProc{PID: 30, Start: 1, State: 'S', Rate: 0})
	fs.SlowDelay = fq / 4
	log := obs.NewEventLog()
	r := newFaultRunner(t, fs, Config{Observer: log}, []Task{
		{ID: 1, Share: 1, PIDs: []int{10}},
		{ID: 2, Share: 3, PIDs: []int{20}},
		{ID: 3, Share: 2, PIDs: []int{30}},
	})
	for i := 0; i < 120; i++ {
		if i == 40 {
			fs.Inject(10, CallRead, FaultSlow) // stall eats into the quantum
		}
		if i == 60 {
			fs.Kill(20)
		}
		stepQuantum(fs, r)
	}

	events := log.Events()
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, events, map[string]any{"substrate": "osproc"}); err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(buf.Bytes()); err != nil {
		t.Fatalf("runner trace fails validation: %v", err)
	}

	spans := make(map[string]int)
	for _, ce := range trace.Build(events) {
		if ce.Ph == "X" {
			spans[ce.Name]++
		}
	}
	for _, p := range obs.Phases() {
		if spans[p.String()] == 0 {
			t.Errorf("no %q phase span in the runner trace", p)
		}
	}
	if spans["quantum"] == 0 || spans["eligible"] == 0 {
		t.Errorf("span counts = %v, want quantum and eligibility tracks populated", spans)
	}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("timestamps not monotone at %d: %v after %v", i, events[i].At, events[i-1].At)
		}
	}
}

// TestPrefetchInsideSamplePhase: with a sampler pool the tick's /proc
// reads happen inside the core's sample phase, so the layers add up. A
// slow read of one of two due PIDs lies inside that quantum's sample
// span in trace.Build's output, and inside its loop work in the auditor.
func TestPrefetchInsideSamplePhase(t *testing.T) {
	const slow = fq / 4
	fs := NewFaultSys()
	fs.SlowDelay = slow
	fs.AddProc(FaultProc{PID: 10, Start: 1})
	fs.AddProc(FaultProc{PID: 20, Start: 1})
	log := obs.NewEventLog()
	aud := trace.NewAuditor(trace.AuditorConfig{})
	r := newFaultRunner(t, fs, Config{Samplers: 2, Observer: obs.Multi(log, aud)}, []Task{
		{ID: 1, Share: 1, PIDs: []int{10}},
		{ID: 2, Share: 1, PIDs: []int{20}},
	})
	defer r.Release()
	for dueNext(r.sched) < 2 {
		if r.sched.Tick() > 50 {
			t.Fatal("the two tasks never fell due in one quantum")
		}
		stepQuantum(fs, r)
	}
	fs.Inject(20, CallRead, FaultSlow)
	stepQuantum(fs, r)
	tick := r.sched.Tick()
	stepQuantum(fs, r) // closes the slow quantum's loop-work bucket

	var sample float64
	for _, ce := range trace.Build(log.Events()) {
		if ce.Ph == "X" && ce.Name == obs.PhaseSample.String() && ce.Args["tick"] == tick {
			sample = ce.Dur
		}
	}
	if want := float64(slow.Microseconds()); sample < want {
		t.Errorf("tick %d: sample span %.0fµs, want at least the %.0fµs slow read", tick, sample, want)
	}
	if got := aud.LastLoopWork(); got < slow {
		t.Errorf("tick %d: loop work %v, want at least the %v slow read", tick, got, slow)
	}
}

// TestRunnerDropAnomalyAutoDump is the fault-injection anomaly e2e on the
// real-OS substrate: a PID that persistently refuses SIGSTOP free-rides
// until the runner drops it, and the resulting KindDead event auto-dumps
// the flight-recorder window — which must contain the offending quanta
// (the failed suspensions) and render as a valid Chrome trace.
func TestRunnerDropAnomalyAutoDump(t *testing.T) {
	fs := NewFaultSys()
	fs.AddProc(FaultProc{PID: 10, Start: 1, State: 'R', Rate: 1})
	fs.AddProc(FaultProc{PID: 20, Start: 1, State: 'R', Rate: 1})
	var dumps []trace.Dump
	rec := trace.NewRecorder(trace.RecorderConfig{
		OnDump: func(d trace.Dump) { dumps = append(dumps, d) },
	})
	r := newFaultRunner(t, fs, Config{Observer: rec}, []Task{
		{ID: 1, Share: 3, PIDs: []int{10}},
		{ID: 2, Share: 1, PIDs: []int{20}},
	})
	// Every post-startup SIGSTOP to 20 fails EPERM: it free-rides through
	// its ineligible phases until three strikes drop it.
	for i := 0; i < 16; i++ {
		fs.Inject(20, CallStop, FaultEPERM)
	}
	for i := 0; i < 60 && len(dumps) == 0; i++ {
		stepQuantum(fs, r)
	}

	if len(dumps) != 1 {
		t.Fatalf("flight recorder dumped %d times, want 1 (unsignalable PID dropped)", len(dumps))
	}
	d := dumps[0]
	if d.Reason != "process_drop" {
		t.Errorf("dump reason = %q, want process_drop", d.Reason)
	}
	var deadTask2, task2Measures, quanta int
	for _, e := range d.Events {
		switch {
		case e.Kind == obs.KindDead && e.Task == 2:
			deadTask2++
		case e.Kind == obs.KindMeasure && e.Task == 2:
			task2Measures++
		case e.Kind == obs.KindQuantumStart:
			quanta++
		}
	}
	if deadTask2 != 1 {
		t.Errorf("dump window has %d dead events for task 2, want 1", deadTask2)
	}
	if task2Measures == 0 {
		t.Error("dump window contains no measurements of the free-riding task")
	}
	if quanta < 2 {
		t.Errorf("dump window covers %d quanta, want the lead-up to the drop", quanta)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, d.Events, nil); err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(buf.Bytes()); err != nil {
		t.Fatalf("dumped window fails validation: %v", err)
	}
}
