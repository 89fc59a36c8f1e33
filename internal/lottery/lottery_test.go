package lottery

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestErrors(t *testing.T) {
	s := New(1)
	if _, err := s.Next(); !errors.Is(err, ErrNoClients) {
		t.Errorf("empty Next: %v", err)
	}
	if err := s.Add(1, 0); !errors.Is(err, ErrBadTickets) {
		t.Errorf("zero tickets: %v", err)
	}
	if err := s.Add(1, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(1, 5); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate: %v", err)
	}
}

// TestProportionalInExpectation: over many draws the allocation tracks
// the ticket ratios within statistical tolerance (≈4σ of a binomial).
func TestProportionalInExpectation(t *testing.T) {
	s := New(42)
	tickets := []int64{1, 2, 3, 4}
	var total int64
	for i, tk := range tickets {
		if err := s.Add(int64(i), tk); err != nil {
			t.Fatal(err)
		}
		total += tk
	}
	const draws = 100000
	for i := 0; i < draws; i++ {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}
	for i, tk := range tickets {
		p := float64(tk) / float64(total)
		want := draws * p
		sigma := math.Sqrt(draws * p * (1 - p))
		got := float64(s.Allocated(int64(i)))
		if math.Abs(got-want) > 4*sigma {
			t.Errorf("client %d allocated %.0f, want %.0f±%.0f", i, got, want, 4*sigma)
		}
	}
}

// TestDrawsAlwaysValid: every draw returns a registered client, for any
// ticket configuration.
func TestDrawsAlwaysValid(t *testing.T) {
	f := func(seed int64, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := New(seed)
		valid := map[int64]bool{}
		for i, v := range raw {
			if i >= 8 {
				break
			}
			if err := s.Add(int64(i), int64(v%40)+1); err != nil {
				return false
			}
			valid[int64(i)] = true
		}
		for i := 0; i < 500; i++ {
			id, err := s.Next()
			if err != nil || !valid[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSeededDeterminism(t *testing.T) {
	run := func() []int64 {
		s := New(99)
		for i := int64(0); i < 3; i++ {
			if err := s.Add(i, int64(i)+1); err != nil {
				t.Fatal(err)
			}
		}
		var seq []int64
		for i := 0; i < 50; i++ {
			id, _ := s.Next()
			seq = append(seq, id)
		}
		return seq
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
}
