package core

import (
	"math/rand"
	"testing"
	"time"

	"alps/internal/obs"
)

// TestPostponementNeverLate is the property test for the §2.3 lazy
// sampling predictor, asserted from the Observer event stream alone: a
// postponed task is never measured later than the first quantum at
// which it could have exhausted its allowance. Concretely, for every
// measurement of task i at tick k that reports drain width w and leaves
// effective allowance A (post-charge, plus any grant landing on the same
// tick), the next measurement at tick k' satisfies
//
//	k' − k ≤ ⌈A/(w·Q)⌉
//
// because the task can consume at most w·Q per quantum, so its allowance
// cannot reach zero before tick k+⌈A/(w·Q)⌉; measuring by then means no
// overdraft window is ever longer than the predictor promised. Grants
// that land strictly between k and k' only raise the allowance, so the
// bound derived at k remains sufficient. Tasks observed blocked are
// exempt from the bound but must instead be rechecked on the very next
// quantum (the predictor's premise fails for them — see tick.go).
//
// A companion invariant checks the consequence the paper cares about:
// with a Reader that never reports more than w·Q consumed per elapsed
// quantum, w being the width it reported at the previous read, no
// measurement ever drives an allowance below −(w+1)·Q (w quanta of
// overrun plus one blocked charge), i.e. lazy sampling does not let a
// task silently overdraw. The widths are drawn from 1 to 4, so a
// predictor that postponed by ⌈A/Q⌉ alone fails both checks.
func TestPostponementNeverLate(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			testPostponement(t, seed)
		})
	}
}

func testPostponement(t *testing.T, seed int64) {
	q := 10 * time.Millisecond
	rng := rand.New(rand.NewSource(seed))
	log := obs.NewEventLog()
	s := New(Config{Quantum: q, Observer: log})

	nTasks := 2 + rng.Intn(5)
	for i := 0; i < nTasks; i++ {
		if err := s.Add(TaskID(i), 1+int64(rng.Intn(8))); err != nil {
			t.Fatal(err)
		}
	}

	// credit tracks, per task, the quanta elapsed while the task was
	// eligible since its previous measurement, and width the drain width
	// that measurement reported (1 before the first). A task can consume
	// at most width·Q per eligible quantum — a suspended (SIGSTOP'd) task
	// runs not at all — so the Reader reports a random consumption in
	// [0, credit·width·Q] and then draws the width it reports now. This
	// is the physical model the §2.3 predictor is built on.
	credit := make(map[TaskID]int64)
	width := make(map[TaskID]int)
	read := func(id TaskID) (Progress, bool) {
		limit := time.Duration(credit[id]) * time.Duration(max(width[id], 1)) * q
		credit[id] = 0
		width[id] = 1 + rng.Intn(4)
		p := Progress{
			Consumed: time.Duration(rng.Int63n(int64(limit) + 1)),
			Blocked:  rng.Intn(10) == 0,
			Width:    width[id],
		}
		return p, true
	}

	for tick := 0; tick < 400; tick++ {
		for _, id := range s.Tasks() {
			if st, err := s.State(id); err == nil && st == Eligible {
				credit[id]++
			}
		}
		s.TickQuantum(read)
	}

	// Replay the event stream. For each task: on a measurement, record
	// (tick, allowance, blocked, width); fold in same-tick grants; on the
	// next measurement, check the gap against the bound derived from the
	// recorded state.
	type pending struct {
		tick      int64
		allowance time.Duration
		blocked   bool
		eligible  bool
		width     int
	}
	last := make(map[int64]*pending)
	eligible := make(map[int64]bool)
	for _, e := range log.Events() {
		switch e.Kind {
		case obs.KindMeasure:
			w := 1 // the width the consumption since the previous read ran at
			if p := last[e.Task]; p != nil {
				w = p.width
			}
			if p := last[e.Task]; p != nil && p.eligible {
				gap := e.Tick - p.tick
				var bound int64
				if p.blocked {
					bound = 1 // blocked tasks are rechecked immediately
				} else {
					bound = ceilDiv(p.allowance, time.Duration(p.width)*q)
					if bound < 1 {
						bound = 1
					}
				}
				if gap > bound {
					t.Fatalf("seed %d: task %d measured at t%d then t%d (gap %d) with allowance %v blocked=%v width=%d: bound ⌈A/(w·Q)⌉=%d exceeded",
						seed, e.Task, p.tick, e.Tick, gap, p.allowance, p.blocked, p.width, bound)
				}
			}
			// Overdraft invariant: w quanta of consumption in the quantum
			// the allowance could run out in, plus one blocked charge, is
			// the worst case the predictor allowed.
			if e.Allowance < -time.Duration(w+1)*q {
				t.Fatalf("seed %d: task %d overdrawn to %v at t%d (width %d): lazy sampling let it run past its allowance",
					seed, e.Task, e.Allowance, e.Tick, w)
			}
			last[e.Task] = &pending{tick: e.Tick, allowance: e.Allowance, blocked: e.Blocked, eligible: eligible[e.Task], width: e.N}
		case obs.KindGrant:
			if p := last[e.Task]; p != nil && p.tick == e.Tick {
				// A grant on the measurement tick raises the allowance
				// the scheduler used for the postponement decision.
				p.allowance = e.Allowance
			}
		case obs.KindTransition:
			eligible[e.Task] = e.Eligible
			if p := last[e.Task]; p != nil && p.tick == e.Tick {
				p.eligible = e.Eligible
			}
		case obs.KindDead:
			delete(last, e.Task)
			delete(eligible, e.Task)
		}
	}

	// Sanity: the run must actually have exercised postponement, or the
	// property holds vacuously.
	if len(log.Filter(obs.KindPostpone)) == 0 {
		t.Fatalf("seed %d: no postponements occurred; scenario too weak", seed)
	}
}
