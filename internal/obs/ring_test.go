package obs

import (
	"reflect"
	"testing"
)

// TestRing pins the ring's contract: oldest-first snapshots across
// partial fill and wraparound, i-th-newest access, and Resize keeping the
// newest values when it shrinks and everything when it grows.
func TestRing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cap    int
		pushes int   // pushes the values 0..pushes-1
		resize int   // new capacity after the pushes (0: no resize)
		want   []int // retained values, oldest first
	}{
		{name: "empty", cap: 4, want: []int{}},
		{name: "partial fill", cap: 4, pushes: 2, want: []int{0, 1}},
		{name: "exactly full", cap: 4, pushes: 4, want: []int{0, 1, 2, 3}},
		{name: "wraparound", cap: 4, pushes: 10, want: []int{6, 7, 8, 9}},
		{name: "capacity floor", cap: 0, pushes: 3, want: []int{2}},
		{name: "shrink keeps newest", cap: 4, pushes: 10, resize: 2, want: []int{8, 9}},
		{name: "shrink partial", cap: 4, pushes: 3, resize: 2, want: []int{1, 2}},
		{name: "grow keeps everything", cap: 4, pushes: 10, resize: 8, want: []int{6, 7, 8, 9}},
		{name: "grow partial", cap: 4, pushes: 2, resize: 8, want: []int{0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing[int](tc.cap)
			for i := 0; i < tc.pushes; i++ {
				r.Push(i)
			}
			if tc.resize > 0 {
				r.Resize(tc.resize)
				if r.Cap() != tc.resize {
					t.Fatalf("Cap after Resize(%d) = %d", tc.resize, r.Cap())
				}
			}
			if got := r.Snapshot(); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("Snapshot = %v, want %v", got, tc.want)
			}
			if r.Len() != len(tc.want) {
				t.Fatalf("Len = %d, want %d", r.Len(), len(tc.want))
			}
			for i := range tc.want {
				if got, want := r.Newest(i), tc.want[len(tc.want)-1-i]; got != want {
					t.Fatalf("Newest(%d) = %d, want %d", i, got, want)
				}
			}
			// One more push appends, evicting the oldest only when full.
			r.Push(100)
			want := append(append([]int{}, tc.want...), 100)
			if len(want) > r.Cap() {
				want = want[1:]
			}
			if got := r.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("after one more push: %v, want %v", got, want)
			}
		})
	}
}

// TestRingPushZeroAllocs: the recorder pushes one event per observer
// call on the control loop, so a push into a full ring must not allocate.
func TestRingPushZeroAllocs(t *testing.T) {
	r := NewRing[Event](64)
	e := Event{Kind: KindMeasure, Task: 7}
	for i := 0; i < r.Cap(); i++ {
		r.Push(e)
	}
	if n := testing.AllocsPerRun(1000, func() { e.Tick++; r.Push(e) }); n != 0 {
		t.Fatalf("Push on a full ring: %v allocs, want 0", n)
	}
}
