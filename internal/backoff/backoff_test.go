package backoff

import (
	"testing"
	"time"
)

func TestDelayGrowsAndCaps(t *testing.T) {
	p := New(time.Millisecond, 8*time.Millisecond, 0)
	raw := []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 8 * time.Millisecond,
	}
	for i, d := range raw {
		if got := p.Delay(0, i+1); got < d/2 || got >= d {
			t.Errorf("attempt %d: delay = %v, want in [%v, %v)", i+1, got, d/2, d)
		}
	}
}

func TestDelayDeterministic(t *testing.T) {
	p := New(time.Millisecond, 100*time.Millisecond, 42)
	for attempt := 1; attempt <= 6; attempt++ {
		a := p.Delay(7, attempt)
		b := p.Delay(7, attempt)
		if a != b {
			t.Fatalf("attempt %d: non-deterministic delay %v vs %v", attempt, a, b)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	p := New(time.Millisecond, time.Second, 1)
	for key := uint64(0); key < 200; key++ {
		for attempt := 1; attempt <= 5; attempt++ {
			raw := time.Millisecond << (attempt - 1)
			d := p.Delay(key, attempt)
			if d < raw/2 || d >= raw {
				t.Fatalf("key %d attempt %d: delay %v outside [%v, %v)", key, attempt, d, raw/2, raw)
			}
		}
	}
}

// TestSeedsDecorrelate is the thundering-herd property: two policies
// differing only in seed must not produce identical schedules.
func TestSeedsDecorrelate(t *testing.T) {
	a := New(time.Millisecond, time.Second, 1)
	b := New(time.Millisecond, time.Second, 2)
	same := 0
	const n = 64
	for attempt := 1; attempt <= n; attempt++ {
		if a.Delay(0, attempt) == b.Delay(0, attempt) {
			same++
		}
	}
	if same == n {
		t.Fatalf("seeds 1 and 2 produced identical %d-step schedules", n)
	}
}

func TestKeysDecorrelate(t *testing.T) {
	p := New(time.Millisecond, time.Second, 9)
	if p.Delay(1, 3) == p.Delay(2, 3) && p.Delay(1, 4) == p.Delay(2, 4) {
		t.Fatal("distinct keys produced identical delays on consecutive attempts")
	}
}

func TestOverflowClamped(t *testing.T) {
	p := New(time.Hour, 2*time.Hour, 0)
	for attempt := 1; attempt <= 80; attempt++ {
		d := p.Delay(0, attempt)
		if d <= 0 || d > 2*time.Hour {
			t.Fatalf("attempt %d: delay %v escaped (0, cap]", attempt, d)
		}
	}
}

// TestDelayProperties sweeps pseudo-randomly generated policies and
// checks the two invariants every consumer leans on, for every (key,
// attempt) pair sampled: the jittered delay never leaves
// [Base/2, Cap], and the schedule is a pure function of
// (Seed, key, attempt) — an independently built identical Policy
// reproduces it exactly.
func TestDelayProperties(t *testing.T) {
	// Deterministic policy generator (splitmix-style), so a failure
	// reproduces without recording a seed.
	state := uint64(0xa1b2c3d4e5f60718)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}

	for i := 0; i < 200; i++ {
		base := time.Duration(1+next()%5000) * time.Microsecond
		cap := base * time.Duration(1+next()%64)
		seed := next()
		p := New(base, cap, seed)
		clone := New(base, cap, seed)
		lo := base / 2

		for _, key := range []uint64{0, 1, next() % 1e6} {
			for attempt := 1; attempt <= 12; attempt++ {
				d := p.Delay(key, attempt)
				if d < lo || d > cap {
					t.Fatalf("policy %d (base=%v cap=%v seed=%d) key=%d attempt=%d: delay %v outside [%v, %v]",
						i, base, cap, seed, key, attempt, d, lo, cap)
				}
				if d2 := clone.Delay(key, attempt); d2 != d {
					t.Fatalf("policy %d not reproducible: %v vs %v", i, d, d2)
				}
			}
		}
	}
}
