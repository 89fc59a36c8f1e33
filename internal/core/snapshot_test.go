package core

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// busyRead is a Reader where every task consumes its full quantum.
func busyRead(q time.Duration) Reader {
	return func(TaskID) (Progress, bool) { return Progress{Consumed: q}, true }
}

func TestSnapshotRoundTrip(t *testing.T) {
	q := 10 * time.Millisecond
	s := New(Config{Quantum: q})
	for i, share := range []int64{1, 3, 5} {
		if err := s.Add(TaskID(i), share); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 17; i++ {
		s.TickQuantum(busyRead(q))
	}
	snap := s.Snapshot()

	r := New(Config{Quantum: time.Millisecond}) // deliberately different Q: Restore adopts the snapshot's
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if r.Quantum() != q {
		t.Errorf("restored quantum = %v, want %v", r.Quantum(), q)
	}
	if got := r.Snapshot(); !reflect.DeepEqual(got, snap) {
		t.Errorf("snapshot round trip mismatch:\n got %+v\nwant %+v", got, snap)
	}
	if r.Tick() != s.Tick() || r.Cycles() != s.Cycles() || r.TotalShares() != s.TotalShares() {
		t.Errorf("counters: tick %d/%d cycles %d/%d shares %d/%d",
			r.Tick(), s.Tick(), r.Cycles(), s.Cycles(), r.TotalShares(), s.TotalShares())
	}
	// Both schedulers must continue identically.
	for i := 0; i < 40; i++ {
		da := s.TickQuantum(busyRead(q))
		db := r.TickQuantum(busyRead(q))
		if !reflect.DeepEqual(da, db) {
			t.Fatalf("tick %d diverged after restore:\n got %+v\nwant %+v", i, db, da)
		}
	}
}

func TestRestoreRejectsInvalid(t *testing.T) {
	q := 10 * time.Millisecond
	valid := func() Snapshot {
		s := New(Config{Quantum: q})
		_ = s.Add(1, 2)
		_ = s.Add(2, 3)
		s.TickQuantum(busyRead(q))
		return s.Snapshot()
	}
	cases := []struct {
		name string
		mut  func(*Snapshot)
	}{
		{"zero quantum", func(sn *Snapshot) { sn.Quantum = 0 }},
		{"negative quantum", func(sn *Snapshot) { sn.Quantum = -q }},
		{"negative count", func(sn *Snapshot) { sn.Count = -1 }},
		{"negative cycles", func(sn *Snapshot) { sn.Cycles = -1 }},
		{"zero share", func(sn *Snapshot) { sn.Tasks[0].Share = 0 }},
		{"negative share", func(sn *Snapshot) { sn.Tasks[1].Share = -4 }},
		{"duplicate task", func(sn *Snapshot) { sn.Tasks[1].ID = sn.Tasks[0].ID }},
		{"identity violated", func(sn *Snapshot) { sn.Tasks[0].Allowance += time.Millisecond }},
		{"cycle time skewed", func(sn *Snapshot) { sn.CycleTime -= time.Millisecond }},
		{"negative cycle accounting", func(sn *Snapshot) { sn.Tasks[0].CycleBlocked = -1 }},
		{"negative width", func(sn *Snapshot) { sn.Tasks[0].Width = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sn := valid()
			tc.mut(&sn)
			s := New(Config{Quantum: q})
			_ = s.Add(7, 1)
			before := s.Snapshot()
			if err := s.Restore(sn); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("Restore = %v, want ErrBadSnapshot", err)
			}
			// All-or-nothing: the scheduler is untouched on rejection.
			if after := s.Snapshot(); !reflect.DeepEqual(after, before) {
				t.Errorf("rejected restore mutated scheduler:\n got %+v\nwant %+v", after, before)
			}
		})
	}
}

func TestRestoreEmptySnapshot(t *testing.T) {
	s := New(Config{Quantum: time.Millisecond})
	_ = s.Add(1, 1)
	if err := s.Restore(Snapshot{Quantum: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Errorf("restore of empty snapshot left %d tasks", s.Len())
	}
}

func TestSetQuantum(t *testing.T) {
	s := New(Config{Quantum: 10 * time.Millisecond})
	if err := s.SetQuantum(0); !errors.Is(err, ErrBadQuantum) {
		t.Errorf("SetQuantum(0) = %v, want ErrBadQuantum", err)
	}
	if err := s.SetQuantum(-time.Millisecond); !errors.Is(err, ErrBadQuantum) {
		t.Errorf("SetQuantum(<0) = %v, want ErrBadQuantum", err)
	}
	if err := s.SetQuantum(40 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if s.Quantum() != 40*time.Millisecond {
		t.Errorf("quantum = %v after SetQuantum", s.Quantum())
	}
	// Future grants use the new quantum: one task, share 2, next cycle
	// grants 80ms.
	if err := s.Add(1, 2); err != nil {
		t.Fatal(err)
	}
	if got := s.CycleLength(); got != 80*time.Millisecond {
		t.Errorf("cycle length = %v, want 80ms", got)
	}
}
