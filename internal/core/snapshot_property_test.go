package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"alps/internal/obs"
)

// Property: restore rebuilds the §2.3 measurement schedule from the
// restored allowances and drain widths, never trusting serialized wake
// ticks that overshoot them — and a quantum-stretching reconfiguration
// applied after restore (the overload guard re-applies its degrade level
// on restart) pulls every scheduled wake back under the new quantum. A
// stranded task would sit unmeasured past the point its allowance
// supports, overdrawing by (wake − bound) stretched quanta.
func TestRestoreRebuildsScheduleFromAllowances(t *testing.T) {
	q := 10 * time.Millisecond
	src := New(Config{Quantum: q})
	for i, share := range []int64{200, 400, 800, 50, 3, 16} {
		if err := src.Add(TaskID(i), share); err != nil {
			t.Fatal(err)
		}
	}
	// Idle ticks: allowances stay at the initial grant, wakes are
	// postponed share quanta out. Task 5 is read at tick 17 and reports
	// drain width 2, so its next read is ⌈16Q/2Q⌉ = 8 quanta out.
	const wide = TaskID(5)
	idle := func(id TaskID) (Progress, bool) {
		if id == wide {
			return Progress{Width: 2}, true
		}
		return Progress{}, true
	}
	for i := 0; i < 20; i++ {
		src.TickQuantum(idle)
	}
	snap := src.Snapshot()
	width := func(id TaskID) time.Duration {
		if id == wide {
			return 2
		}
		return 1
	}

	// Case 1: a hand-inflated wake tick (cross-version snapshot,
	// corruption) must be clamped to count + ⌈allowance/(k·Q)⌉ on restore.
	inflated := snap
	inflated.Tasks = append([]TaskSnapshot(nil), snap.Tasks...)
	for i := range inflated.Tasks {
		inflated.Tasks[i].Update += 1 << 30
	}
	r := New(Config{Quantum: q})
	if err := r.Restore(inflated); err != nil {
		t.Fatal(err)
	}
	for _, ts := range inflated.Tasks {
		if !ts.Eligible {
			continue
		}
		got := r.tasks[ts.ID].update
		if want := snap.Count + ceilDiv(ts.Allowance, width(ts.ID)*snap.Quantum); got > want {
			t.Fatalf("task %d restored wake %d exceeds recomputed bound %d", ts.ID, got, want)
		}
	}

	// Case 2: quantum stretched 4x between save and load (restore +
	// SetQuantum, the NewRunnerFromState path). Every eligible task
	// must be measured no later than count + ⌈allowance/(k·Q')⌉ —
	// observed through the event stream, not internals. For the width-2
	// task that is tick 22; a checkpoint that lost its width would put
	// the read at tick 24.
	r2 := New(Config{Quantum: q})
	if err := r2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	stretched := 4 * q
	if err := r2.SetQuantum(stretched); err != nil {
		t.Fatal(err)
	}
	bounds := make(map[TaskID]int64)
	for _, ts := range snap.Tasks {
		if ts.Eligible {
			bounds[ts.ID] = snap.Count + ceilDiv(ts.Allowance, width(ts.ID)*stretched)
		}
	}
	log := obs.NewEventLog()
	r2.cfg.Observer = log
	for i := 0; i < 250; i++ {
		r2.TickQuantum(idle)
	}
	firstMeasure := make(map[TaskID]int64)
	for _, e := range log.Events() {
		if e.Kind == obs.KindMeasure {
			id := TaskID(e.Task)
			if _, seen := firstMeasure[id]; !seen {
				firstMeasure[id] = e.Tick
			}
		}
	}
	for id, bound := range bounds {
		tick, ok := firstMeasure[id]
		if !ok {
			t.Fatalf("task %d never measured within 250 post-restore ticks (bound %d)", id, bound)
		}
		if tick > bound {
			t.Fatalf("task %d stranded — first post-restore measure at tick %d, allowance supports at most %d", id, tick, bound)
		}
	}
}

// Property: a Snapshot/Restore round trip at ANY quantum boundary is
// invisible — the restored scheduler's future eligibility-transition
// sequence is identical to the uninterrupted run's. The workload is a
// deterministic pseudo-random mixture of partial consumption, blocking,
// and idling, so both runs (and the Replay cross-check) observe exactly
// the same measurements.
func TestSnapshotRestoreTransitionProperty(t *testing.T) {
	const totalTicks = 400
	q := 10 * time.Millisecond

	// read is a pure function of (tick, task): the consumption and
	// blocked state depend only on the coordinates, never on which
	// scheduler instance asks.
	mkRead := func(seed int64, s *Scheduler) Reader {
		return func(id TaskID) (Progress, bool) {
			h := rand.New(rand.NewSource(seed ^ s.Tick()<<16 ^ int64(id)))
			switch h.Intn(10) {
			case 0:
				return Progress{Blocked: true}, true
			case 1:
				return Progress{}, true // idle, not blocked
			default:
				frac := 1 + h.Intn(10) // 10%..100% of a quantum
				return Progress{Consumed: q * time.Duration(frac) / 10}, true
			}
		}
	}

	shares := []int64{1, 2, 3, 5, 8}
	tasks := make([]ReplayTask, len(shares))
	for i, sh := range shares {
		tasks[i] = ReplayTask{ID: TaskID(i), Share: sh}
	}

	for _, seed := range []int64{1, 7, 42} {
		for _, cut := range []int{1, 13, 100, 250, totalTicks - 1} {
			// Uninterrupted run, capturing the full event stream.
			baseLog := obs.NewEventLog()
			base := New(Config{Quantum: q, Observer: baseLog})
			for _, tk := range tasks {
				if err := base.Add(tk.ID, tk.Share); err != nil {
					t.Fatal(err)
				}
			}
			baseRead := mkRead(seed, base)
			for i := 0; i < totalTicks; i++ {
				base.TickQuantum(baseRead)
			}

			// Interrupted run: same schedule to the cut, then a
			// Snapshot/Restore into a fresh scheduler, then the rest.
			firstLog := obs.NewEventLog()
			first := New(Config{Quantum: q, Observer: firstLog})
			for _, tk := range tasks {
				if err := first.Add(tk.ID, tk.Share); err != nil {
					t.Fatal(err)
				}
			}
			firstRead := mkRead(seed, first)
			for i := 0; i < cut; i++ {
				first.TickQuantum(firstRead)
			}
			snap := first.Snapshot()

			secondLog := obs.NewEventLog()
			second := New(Config{Quantum: time.Millisecond, Observer: secondLog})
			if err := second.Restore(snap); err != nil {
				t.Fatalf("seed %d cut %d: restore: %v", seed, cut, err)
			}
			secondRead := mkRead(seed, second)
			for i := cut; i < totalTicks; i++ {
				second.TickQuantum(secondRead)
			}

			// The future transition sequence must be identical.
			var wantFuture []obs.Event
			for _, e := range TransitionsOf(baseLog.Events()) {
				if e.Tick > int64(cut) {
					wantFuture = append(wantFuture, e)
				}
			}
			gotFuture := TransitionsOf(secondLog.Events())
			if !reflect.DeepEqual(gotFuture, wantFuture) {
				t.Fatalf("seed %d cut %d: post-restore transitions diverge:\n got %d transitions\nwant %d transitions",
					seed, cut, len(gotFuture), len(wantFuture))
			}

			// Cross-check with Replay (PR 2): the stitched event stream
			// (pre-cut capture + post-restore capture) must replay to the
			// same transitions as the uninterrupted capture — i.e. the
			// measurements across the restore boundary fully explain the
			// decisions, with no hidden state lost by Snapshot.
			stitched := append(firstLog.Events(), secondLog.Events()...)
			replayed, err := Replay(Config{Quantum: q}, tasks, stitched)
			if err != nil {
				t.Fatalf("seed %d cut %d: replay of stitched stream: %v", seed, cut, err)
			}
			if got, want := TransitionsOf(replayed), TransitionsOf(baseLog.Events()); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d cut %d: replayed stitched stream diverges from uninterrupted run", seed, cut)
			}
		}
	}
}
