package obs

import (
	"strings"
	"testing"
	"time"
)

func TestMultiSkipsNil(t *testing.T) {
	if Multi(nil, nil) != nil {
		t.Error("Multi of nils should be nil")
	}
	var got []Event
	one := ObserverFunc(func(e Event) { got = append(got, e) })
	if Multi(nil, one) == nil {
		t.Fatal("Multi with one live observer should not be nil")
	}
	m := Multi(one, nil, one)
	m.Observe(Event{Kind: KindMeasure})
	if len(got) != 2 {
		t.Errorf("fan-out delivered %d, want 2", len(got))
	}
}

func TestStamp(t *testing.T) {
	if Stamp(func() time.Duration { return 0 }, nil) != nil {
		t.Error("Stamp(nil) should be nil")
	}
	var got Event
	o := Stamp(func() time.Duration { return 42 * time.Millisecond },
		ObserverFunc(func(e Event) { got = e }))
	o.Observe(Event{Kind: KindCycle})
	if got.At != 42*time.Millisecond {
		t.Errorf("At = %v", got.At)
	}
}

func TestEventLogFilterAndReset(t *testing.T) {
	l := NewEventLog()
	l.Observe(Event{Kind: KindMeasure})
	l.Observe(Event{Kind: KindTransition})
	l.Observe(Event{Kind: KindMeasure})
	if got := len(l.Filter(KindMeasure)); got != 2 {
		t.Errorf("Filter(measure) = %d, want 2", got)
	}
	l.Reset()
	if len(l.Events()) != 0 {
		t.Error("Reset left events behind")
	}
}

func TestEventStrings(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Kind: KindMeasure, Tick: 3, Task: 1, Consumed: 20 * time.Millisecond, Allowance: 40 * time.Millisecond}, "measure task=1"},
		{Event{Kind: KindMeasure, Tick: 3, Task: 1, N: 2}, "width=2"},
		{Event{Kind: KindTransition, Tick: 4, Task: 2, Eligible: true, Reason: ReasonGrant}, "-> eligible (grant)"},
		{Event{Kind: KindTransition, Tick: 4, Task: 2, Reason: ReasonExhausted}, "-> ineligible (exhausted)"},
		{Event{Kind: KindPostpone, Tick: 5, Task: 0, Wake: 9}, "wake=t9"},
		{Event{Kind: KindCycle, Tick: 6, Cycle: 1, N: 3, Length: 120 * time.Millisecond}, "cycle index=1"},
	}
	for _, c := range cases {
		if got := c.e.String(); !strings.Contains(got, c.want) {
			t.Errorf("String() = %q, want substring %q", got, c.want)
		}
	}
	for _, k := range Kinds() {
		if strings.Contains(k.String(), "kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
}
