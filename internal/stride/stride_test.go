package stride

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestErrors(t *testing.T) {
	s := New()
	if _, err := s.Next(); !errors.Is(err, ErrNoClients) {
		t.Errorf("empty Next: %v", err)
	}
	if err := s.Add(1, 0); !errors.Is(err, ErrBadTickets) {
		t.Errorf("zero tickets: %v", err)
	}
	if err := s.Add(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(1, 3); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate: %v", err)
	}
	if _, err := s.Tickets(9); !errors.Is(err, ErrNoClient) {
		t.Errorf("tickets unknown: %v", err)
	}
	if tk, _ := s.Tickets(1); tk != 3 {
		t.Errorf("Tickets = %d", tk)
	}
}

// TestExactProportions: over k full rounds (k·S quanta), each client
// receives exactly k·tickets quanta ±1 — stride's single-quantum error
// bound.
func TestExactProportions(t *testing.T) {
	s := New()
	tickets := []int64{1, 2, 3, 4}
	var total int64
	for i, tk := range tickets {
		if err := s.Add(int64(i), tk); err != nil {
			t.Fatal(err)
		}
		total += tk
	}
	const rounds = 100
	for q := int64(0); q < rounds*total; q++ {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}
	for i, tk := range tickets {
		got := s.Allocated(int64(i))
		want := rounds * tk
		if got < want-1 || got > want+1 {
			t.Errorf("client %d allocated %d, want %d±1", i, got, want)
		}
	}
	if s.Quanta() != rounds*total {
		t.Errorf("Quanta = %d", s.Quanta())
	}
}

// TestErrorBoundProperty: at every prefix of the schedule, each client's
// allocation stays close to its proportional target. Stride's exact
// guarantee is pairwise (any two clients differ from their relative
// target by at most one quantum); the absolute per-client deviation is
// slightly looser, so the bound here is 3 quanta.
func TestErrorBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		n := 2 + rng.Intn(5)
		tickets := make([]int64, n)
		var total int64
		for i := range tickets {
			tickets[i] = 1 + int64(rng.Intn(9))
			total += tickets[i]
			if err := s.Add(int64(i), tickets[i]); err != nil {
				t.Fatal(err)
			}
		}
		steps := 50 * int(total)
		for q := 1; q <= steps; q++ {
			if _, err := s.Next(); err != nil {
				t.Fatal(err)
			}
			for i := range tickets {
				target := float64(q) * float64(tickets[i]) / float64(total)
				if diff := float64(s.Allocated(int64(i))) - target; diff > 3 || diff < -3 {
					t.Logf("seed %d: client %d off by %.2f at quantum %d", seed, i, diff, q)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestDynamicJoin: a client added mid-schedule competes from its join
// point without starving others or being starved.
func TestDynamicJoin(t *testing.T) {
	s := New()
	if err := s.Add(0, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Add(1, 1); err != nil {
		t.Fatal(err)
	}
	base0 := s.Allocated(0)
	for i := 0; i < 100; i++ {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}
	got0 := s.Allocated(0) - base0
	got1 := s.Allocated(1)
	if got0 < 48 || got0 > 52 || got1 < 48 || got1 > 52 {
		t.Errorf("post-join split = %d/%d, want ~50/50", got0, got1)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	run := func() []int64 {
		s := New()
		for i := int64(0); i < 4; i++ {
			if err := s.Add(i, 2); err != nil {
				t.Fatal(err)
			}
		}
		var seq []int64
		for i := 0; i < 40; i++ {
			id, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			seq = append(seq, id)
		}
		return seq
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d: %v vs %v", i, a, b)
		}
	}
}
