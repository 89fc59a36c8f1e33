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
// measurement of task i at tick k that leaves effective allowance A
// (post-charge, plus any grant landing on the same tick), the next
// measurement at tick k' satisfies
//
//	k' − k ≤ ⌈A/Q⌉
//
// because the task can consume at most Q per quantum, so its allowance
// cannot reach zero before tick k+⌈A/Q⌉; measuring by then means no
// overdraft window is ever longer than the predictor promised. Grants
// that land strictly between k and k' only raise the allowance, so the
// bound derived at k remains sufficient. Tasks observed blocked are
// exempt from the bound but must instead be rechecked on the very next
// quantum (the predictor's premise fails for them — see tick.go).
//
// A companion invariant checks the consequence the paper cares about:
// with a Reader that never reports more than Q consumed per elapsed
// quantum, no measurement ever drives an allowance below −Q·(1+blocked
// charge), i.e. lazy sampling does not let a task silently overdraw.
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
	// eligible since its previous measurement. A task can consume at
	// most Q per eligible quantum — a suspended (SIGSTOP'd) task runs
	// not at all — so the Reader reports a random consumption in
	// [0, credit·Q]. This is the physical model the §2.3 predictor is
	// built on.
	credit := make(map[TaskID]int64)
	read := func(id TaskID) (Progress, bool) {
		max := time.Duration(credit[id]) * q
		credit[id] = 0
		p := Progress{
			Consumed: time.Duration(rng.Int63n(int64(max) + 1)),
			Blocked:  rng.Intn(10) == 0,
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
	// (tick, allowance, blocked); fold in same-tick grants; on the next
	// measurement, check the gap against the bound derived from the
	// recorded state.
	type pending struct {
		tick      int64
		allowance time.Duration
		blocked   bool
		eligible  bool
	}
	last := make(map[int64]*pending)
	eligible := make(map[int64]bool)
	for _, e := range log.Events() {
		switch e.Kind {
		case obs.KindMeasure:
			if p := last[e.Task]; p != nil && p.eligible {
				gap := e.Tick - p.tick
				var bound int64
				if p.blocked {
					bound = 1 // blocked tasks are rechecked immediately
				} else {
					bound = ceilDiv(p.allowance, q)
					if bound < 1 {
						bound = 1
					}
				}
				if gap > bound {
					t.Fatalf("seed %d: task %d measured at t%d then t%d (gap %d) with allowance %v blocked=%v: bound ⌈A/Q⌉=%d exceeded",
						seed, e.Task, p.tick, e.Tick, gap, p.allowance, p.blocked, bound)
				}
			}
			// Overdraft invariant: one quantum of consumption plus one
			// blocked charge is the worst case per elapsed-quantum of
			// headroom the predictor allowed.
			if e.Allowance < -(time.Duration(1) * q * 2) {
				t.Fatalf("seed %d: task %d overdrawn to %v at t%d: lazy sampling let it run past its allowance",
					seed, e.Task, e.Allowance, e.Tick)
			}
			last[e.Task] = &pending{tick: e.Tick, allowance: e.Allowance, blocked: e.Blocked, eligible: eligible[e.Task]}
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
