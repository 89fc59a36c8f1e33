package sim

import (
	"fmt"
	"testing"
	"time"

	"alps/internal/core"
	"alps/internal/obs"
)

// TestObserverDeterminism: the simulator is deterministic, so two
// identical runs must produce byte-identical event streams — including
// the virtual-time At stamps.
func TestObserverDeterminism(t *testing.T) {
	run := func() []obs.Event {
		k := NewKernel()
		tasks := startWorkload(k, []int64{1, 2, 3})
		log := obs.NewEventLog()
		if _, err := StartALPS(k, AlpsConfig{
			Quantum:  10 * time.Millisecond,
			Cost:     PaperCosts(),
			Observer: log,
		}, tasks); err != nil {
			t.Fatal(err)
		}
		k.Run(2 * time.Second)
		return log.Events()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs:\n  %v\n  %v", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("no events emitted")
	}
}

// TestSimReplayReproducesTransitions is the acceptance check for the
// event taxonomy on the simulator substrate: feeding the captured
// KindMeasure/KindDead events back through core.Replay reproduces the
// identical eligibility-transition sequence. The event stream therefore
// fully explains the scheduler's decisions — nothing the simulator did
// influenced eligibility outside what the observer recorded. On 2 CPUs a
// 3-member principal is read at drain width 2, which the replay takes
// from the measure events.
func TestSimReplayReproducesTransitions(t *testing.T) {
	for _, ncpu := range []int{1, 2} {
		t.Run(fmt.Sprintf("ncpu=%d", ncpu), func(t *testing.T) {
			k := NewKernelSMP(ncpu)
			shares := []int64{1, 2, 3, 5}
			tasks := startWorkload(k, shares)
			// One I/O-bound process exercises the blocked path (§2.4 charges).
			io := k.SpawnStopped("io", 0, &PeriodicIO{Exec: 2 * time.Millisecond, Wait: 30 * time.Millisecond})
			tasks = append(tasks, AlpsTask{ID: core.TaskID(len(tasks)), Share: 2, Pids: []PID{io}})
			if ncpu > 1 {
				var members []PID
				for i := 0; i < 3; i++ {
					members = append(members, k.SpawnStopped("member", 0, Spin()))
				}
				tasks = append(tasks, AlpsTask{ID: core.TaskID(len(tasks)), Share: 4, Pids: members})
			}

			log := obs.NewEventLog()
			if _, err := StartALPS(k, AlpsConfig{
				Quantum:  10 * time.Millisecond,
				Cost:     PaperCosts(),
				Observer: log,
			}, tasks); err != nil {
				t.Fatal(err)
			}
			k.Run(5 * time.Second)

			captured := log.Events()
			var reg []core.ReplayTask
			for _, tk := range tasks {
				reg = append(reg, core.ReplayTask{ID: tk.ID, Share: tk.Share})
			}
			replayed, err := core.Replay(core.Config{Quantum: 10 * time.Millisecond}, reg, captured)
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
			wide := 0
			for _, e := range log.Filter(obs.KindMeasure) {
				if e.N > 1 {
					wide++
				}
			}
			if (wide > 0) != (ncpu > 1) {
				t.Errorf("%d reads at drain width above 1 on %d CPUs", wide, ncpu)
			}
		})
	}
}
