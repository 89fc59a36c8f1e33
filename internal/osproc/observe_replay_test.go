package osproc

import (
	"testing"

	"alps/internal/core"
	"alps/internal/obs"
)

// TestRunnerReplayReproducesTransitions is the real-OS-substrate half of
// the cross-substrate acceptance check (the sim half lives in
// internal/sim): the event stream captured from a Runner over a
// fault-injecting Sys — including mid-run process death, a sleeper
// going dormant, and a 3-member principal on 2 CPUs read at drain width
// 2 — replays through core.Replay into the identical
// eligibility-transition sequence. One replay harness, two substrates,
// one event vocabulary.
func TestRunnerReplayReproducesTransitions(t *testing.T) {
	fs := NewFaultSys()
	fs.NCPU = 2
	fs.AddProc(FaultProc{PID: 10, Start: 1, State: 'R', Rate: 1})
	fs.AddProc(FaultProc{PID: 20, Start: 1, State: 'R', Rate: 0.6})
	fs.AddProc(FaultProc{PID: 30, Start: 1, State: 'S', Rate: 0}) // blocked sleeper
	for pid := 40; pid < 43; pid++ {
		fs.AddProc(FaultProc{PID: pid, Start: 1, State: 'R', Rate: 0.6})
	}
	log := obs.NewEventLog()
	tasks := []Task{
		{ID: 1, Share: 1, PIDs: []int{10}},
		{ID: 2, Share: 3, PIDs: []int{20}},
		{ID: 3, Share: 2, PIDs: []int{30}},
		{ID: 4, Share: 6, PIDs: []int{40, 41, 42}},
	}
	r := newFaultRunner(t, fs, Config{Observer: log}, tasks)
	for i := 0; i < 150; i++ {
		if i == 80 {
			fs.Kill(20) // process exits mid-run: KindDead path
		}
		stepQuantum(fs, r)
	}

	captured := log.Events()
	var reg []core.ReplayTask
	for _, tk := range tasks {
		reg = append(reg, core.ReplayTask{ID: tk.ID, Share: tk.Share})
	}
	replayed, err := core.Replay(core.Config{Quantum: fq}, reg, captured)
	if err != nil {
		t.Fatal(err)
	}

	want := core.TransitionsOf(captured)
	got := core.TransitionsOf(replayed)
	if len(want) == 0 {
		t.Fatal("scenario produced no transitions")
	}
	if len(got) != len(want) {
		t.Fatalf("transition counts differ: replay %d vs live %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transition %d differs:\n  live:   %v\n  replay: %v", i, want[i], got[i])
		}
	}
	if len(log.Filter(obs.KindDead)) == 0 {
		t.Error("scenario never exercised the dead-task event")
	}
	dormant := false
	for _, e := range want {
		dormant = dormant || (e.Task == 3 && e.Reason == obs.ReasonDormant)
	}
	if !dormant {
		t.Error("the sleeper never went dormant")
	}
	wide := 0
	for _, e := range log.Filter(obs.KindMeasure) {
		if e.Task == 4 && e.N == 2 {
			wide++
		}
	}
	if wide == 0 {
		t.Error("the principal was never read at drain width 2")
	}
}
