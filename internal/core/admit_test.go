package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"alps/internal/obs"
)

// TestAdmissionDuringGrantReason covers the reason-precedence bug: a task
// added mid-run whose first eligibility flip lands in the same quantum as
// a cycle completion was labeled ReasonGrant, even though its admission —
// not the grant — is what made it runnable (its initial allowance was
// already positive). Admission must outrank the grant.
func TestAdmissionDuringGrantReason(t *testing.T) {
	for _, ref := range []bool{false, true} {
		log := obs.NewEventLog()
		s := New(Config{Quantum: q, Observer: log, DisableIndexing: ref})
		if err := s.Add(1, 1); err != nil {
			t.Fatal(err)
		}
		// Tick 1: task 1 admitted to eligibility.
		s.TickQuantum(uniformReader(0, false))
		// Task 2 joins between quanta; cycle time is now 2q.
		if err := s.Add(2, 1); err != nil {
			t.Fatal(err)
		}
		// Tick 2: task 1 consumes the whole remaining cycle, so the cycle
		// completes and grants land in the very quantum task 2 first turns
		// eligible.
		d := s.TickQuantum(uniformReader(2*q, false))
		if !d.CycleCompleted {
			t.Fatalf("ref=%v: cycle did not complete on tick 2", ref)
		}
		var got []obs.Event
		for _, e := range log.Events() {
			if e.Kind == obs.KindTransition && e.Tick == 2 {
				got = append(got, e)
			}
		}
		want := []obs.Event{
			{Kind: obs.KindTransition, Tick: 2, Task: 1, Eligible: false, Reason: obs.ReasonExhausted, Allowance: 0},
			{Kind: obs.KindTransition, Tick: 2, Task: 2, Eligible: true, Reason: obs.ReasonAdmitted, Allowance: 2 * q},
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ref=%v: tick-2 transitions = %+v, want %+v", ref, got, want)
		}
	}
}

// TestGrantReasonStillUsed: the precedence fix must not erase ReasonGrant
// for tasks that genuinely owe their eligibility to a cycle grant.
func TestGrantReasonStillUsed(t *testing.T) {
	log := obs.NewEventLog()
	s := New(Config{Quantum: q, Observer: log})
	if err := s.Add(1, 1); err != nil {
		t.Fatal(err)
	}
	s.TickQuantum(uniformReader(0, false))   // admit
	s.TickQuantum(uniformReader(2*q, false)) // overconsume: allowance 0 after the grant, suspend
	s.TickQuantum(uniformReader(0, false))   // next cycle's grant alone restores eligibility
	var reasons []obs.Reason
	for _, e := range log.Events() {
		if e.Kind == obs.KindTransition && e.Eligible && e.Tick > 1 {
			reasons = append(reasons, e.Reason)
		}
	}
	if len(reasons) != 1 || reasons[0] != obs.ReasonGrant {
		t.Fatalf("re-eligibility reasons = %v, want [grant]", reasons)
	}
}

// TestReplayMidRunAdmission: a capture that includes a mid-run admission
// (landing in a grant quantum, per the scenario above) replays exactly
// when the registration's Tick is supplied.
func TestReplayMidRunAdmission(t *testing.T) {
	log := obs.NewEventLog()
	s := New(Config{Quantum: q, Observer: log})
	if err := s.Add(1, 1); err != nil {
		t.Fatal(err)
	}
	s.TickQuantum(uniformReader(0, false))
	addTick := s.Tick()
	if err := s.Add(2, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		s.TickQuantum(uniformReader(2*q, false))
	}
	captured := log.Events()
	replayed, err := Replay(Config{Quantum: q}, []ReplayTask{
		{ID: 1, Share: 1},
		{ID: 2, Share: 1, Tick: addTick},
	}, captured)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, captured) {
		t.Fatalf("replayed stream differs:\n%+v\nwant:\n%+v", replayed, captured)
	}
	// Without the Tick, the replay registers task 2 upfront and must
	// diverge from the capture rather than silently mislabel it.
	if _, err := Replay(Config{Quantum: q}, []ReplayTask{
		{ID: 1, Share: 1},
		{ID: 2, Share: 1},
	}, captured); err == nil {
		t.Fatal("replay with wrong admission tick did not diverge")
	}
}

// TestCeilDivBoundary covers the overflow bug: the naive (a + b - 1) / b
// wraps for allowances near the time.Duration ceiling, yielding a
// negative wake tick and an immediate re-measure storm.
func TestCeilDivBoundary(t *testing.T) {
	const max = time.Duration(math.MaxInt64)
	cases := []struct {
		a, b time.Duration
		want int64
	}{
		{max, 1, math.MaxInt64},
		{max, max, 1},
		{max - 1, max, 1},
		{max, 10 * time.Millisecond, int64(max/(10*time.Millisecond)) + 1},
		{0, 5, 0},
		{-5, 2, -2}, // negative allowances truncate toward zero, as before
		{-4, 2, -2},
		{7, 3, 3},
		{6, 3, 2},
	}
	for _, c := range cases {
		if got := ceilDiv(c.a, c.b); got != c.want {
			t.Errorf("ceilDiv(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestExtremeAllowanceWakeTick drives the overflow end to end: a task
// whose allowance sits near the Duration ceiling must be postponed to a
// positive wake tick, not re-measured every quantum. A huge drain width
// makes k·Q overflow too; the wake is then one quantum out.
func TestExtremeAllowanceWakeTick(t *testing.T) {
	huge := time.Duration(math.MaxInt64 / 2)
	for _, c := range []struct {
		name  string
		width int
		next  int64 // the read after tick 3's: ⌈(A−1)/(k·Q)⌉ quanta out
	}{
		{"one CPU", 0, 5},
		{"huge width", math.MaxInt, 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			log := obs.NewEventLog()
			s := New(Config{Quantum: huge, Observer: log})
			if err := s.Add(1, 2); err != nil { // allowance = 2 × maxInt64/2 ≈ ceiling
				t.Fatal(err)
			}
			read := func(consumed time.Duration) Reader {
				return func(TaskID) (Progress, bool) { return Progress{Consumed: consumed, Width: c.width}, true }
			}
			// Admission postpones the first measurement ⌈allowance/Q⌉ = 2
			// quanta out (wake tick 3); with the overflow the wake tick
			// went negative and the task was re-measured every quantum.
			s.TickQuantum(read(0))
			for tick := int64(2); tick <= c.next; tick++ {
				want := 0
				if tick == 3 || tick == c.next {
					want = 1
				}
				if d := s.TickQuantum(read(1)); len(d.Measured) != want {
					t.Fatalf("tick %d: measured %v, want a read only at ticks 3 and %d", tick, d.Measured, c.next)
				}
			}
			for _, e := range log.Events() {
				if e.Kind == obs.KindPostpone && e.Wake <= e.Tick {
					t.Fatalf("postpone to wake %d at tick %d: the wake arithmetic overflowed", e.Wake, e.Tick)
				}
			}
		})
	}
}
