package main

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestShareError(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cpu    []float64
		shares []float64
		want   float64
		ok     bool
	}{
		{"exact split", []float64{10, 20, 30}, []float64{1, 2, 3}, 0, true},
		{"one task", []float64{5}, []float64{7}, 0, true},
		// Fractions 0.75/0.25 against 0.5/0.5: relative errors ±0.5.
		{"both off by half", []float64{3, 1}, []float64{1, 1}, 0.5, true},
		// Fractions 0.5/0.5 against 0.25/0.75: errors 1 and 1/3.
		{"unequal shares", []float64{1, 1}, []float64{1, 3}, math.Sqrt((1 + 1.0/9) / 2), true},
		{"zero-total cycle", []float64{0, 0}, []float64{1, 2}, 0, false},
	} {
		got, ok := shareError(tc.cpu, tc.shares)
		if ok != tc.ok || !near(got, tc.want) {
			t.Errorf("%s: shareError = %v, %t; want %v, %t", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

func TestCycleErrors(t *testing.T) {
	tr := &truth{shares: []float64{1, 1}, members: [][]int{{1}, {2}}}
	tr.samples = []truthSample{
		{cycle: 0, cpu: []int64{0, 0}},
		{cycle: 1, cpu: []int64{10, 10}}, // cycle 1: exact
		{cycle: 2, cpu: []int64{10, 10}}, // cycle 2: nothing ran, undefined
		{cycle: 4, cpu: []int64{40, 20}}, // cycle 3 skipped: a gap, not one cycle
		{cycle: 5, cpu: []int64{70, 30}}, // cycle 5: 30 vs 10, errors ±0.5
		{cycle: 6, cpu: []int64{80, 40}}, // cycle 6: outside [0, 6)
	}
	got := tr.cycleErrors(0, 6)
	if want := []float64{0, 0.5}; len(got) != len(want) || !near(got[0], want[0]) || !near(got[1], want[1]) {
		t.Errorf("cycleErrors = %v, want %v", got, want)
	}
	if got := tr.cycleErrors(2, 5); len(got) != 0 {
		t.Errorf("cycleErrors(2, 5) = %v, want none", got)
	}
}

func TestSummarize(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i + 1) // reversed: summarize must sort
		}
		return v
	}
	for _, tc := range []struct {
		n         int
		tailLabel string
		p50, tail float64
	}{
		{1, "p50", 1, 1},
		{99, "p50", 50, 50},
		{100, "p90", 50, 90},
		{999, "p90", 500, 900},
		{1000, "p99", 500, 990},
		{10000, "p99.9", 5000, 9990},
	} {
		s := summarize(seq(tc.n))
		if s.n != tc.n || s.tailLabel != tc.tailLabel || s.p50 != tc.p50 || s.tail != tc.tail {
			t.Errorf("n=%d: got %+v, want p50 %v %s %v", tc.n, s, tc.p50, tc.tailLabel, tc.tail)
		}
	}
	if s := summarize(nil); s.n != 0 || s.p50 != 0 {
		t.Errorf("empty: got %+v", s)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from statistics.quantiles(data, n=4).
	for _, tc := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{4, 1}, 0.25, 2.5, 4.75}, // the exclusive method extrapolates
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.data)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.data, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestOverBound(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 100, 101, 99}
	noisy := []float64{100, 150, 60, 100, 140, 70, 100, 120, 80, 100}
	for _, tc := range []struct {
		name   string
		metric string
		vals   []float64
		bound  float64
		want   bool
	}{
		{"steady within bound", "step_p50_us", steady, 0.1, false},
		{"noisy beyond bound", "step_p50_us", noisy, 0.1, true},
		{"noisy within a wide bound", "step_p50_us", noisy, 0.6, false},
		{"zero median", "alps_cpu_pct", []float64{0, 0, 0}, 0.25, true},
		{"set-up time is judged by its median only", "setup_s", noisy, 0.1, false},
	} {
		if got := overBound(tc.metric, tc.vals, tc.bound); got != tc.want {
			t.Errorf("%s: overBound = %t (spread %.3f), want %t", tc.name, got, spread(tc.vals), tc.want)
		}
	}
}

func TestCovered(t *testing.T) {
	sp := func(a, b int64) span { return span{start: a, end: b} }
	for _, tc := range []struct {
		name   string
		spans  []span
		lo, hi int64
		want   int64
	}{
		{"none", nil, 0, 100, 0},
		{"disjoint", []span{sp(10, 20), sp(40, 45)}, 0, 100, 15},
		{"parallel workers overlap", []span{sp(30, 60), sp(10, 40)}, 0, 100, 50},
		{"nested", []span{sp(10, 90), sp(20, 30), sp(50, 60)}, 0, 100, 80},
		{"clipped to the step", []span{sp(-10, 10), sp(95, 120)}, 0, 100, 15},
		{"touching", []span{sp(0, 10), sp(10, 20)}, 0, 100, 20},
	} {
		if got := covered(slices.Clone(tc.spans), tc.lo, tc.hi); got != tc.want {
			t.Errorf("%s: covered = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// fixtureProc writes a /proc tree of files: path relative to the root →
// contents.
func fixtureProc(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, body := range files {
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestProcRuntime(t *testing.T) {
	root := fixtureProc(t, map[string]string{
		// A Go worker: the leader thread is mostly idle, the others spin.
		"100/schedstat":          "5000 10 2\n",
		"100/task/100/schedstat": "5000 10 2\n",
		"100/task/101/schedstat": "123456789 0 40\n",
		"100/task/102/schedstat": "1000000 7 3\n",
		"200/task/200/schedstat": "42 0 1\n",
		"300/task/300/schedstat": "garbage\n",
	})
	for _, tc := range []struct {
		pid     int
		want    int64
		wantErr bool
	}{
		{100, 5000 + 123456789 + 1000000, false},
		{200, 42, false},
		{300, 0, true}, // unparsable
		{500, 0, true}, // no such process
	} {
		got, err := procRuntime(root, tc.pid)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("pid %d: procRuntime = %d, %v; want %d, error %t", tc.pid, got, err, tc.want, tc.wantErr)
		}
	}
}

func TestParseSchedstat(t *testing.T) {
	for in, want := range map[string]int64{"17 0 1\n": 17, "  99 5 5": 99, "8": 8} {
		if got, err := parseSchedstat([]byte(in)); err != nil || got != want {
			t.Errorf("parseSchedstat(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	if _, err := parseSchedstat([]byte("")); err == nil {
		t.Error("parseSchedstat(\"\") succeeded")
	}
}

func TestSurvivors(t *testing.T) {
	root := fixtureProc(t, map[string]string{
		"10/cmdline":   marker + "\x00-c\x00while :; do :; done\x00",
		"11/cmdline":   "/bin/sh\x00-c\x00" + marker + "\x00",
		"12/cmdline":   marker + "\x0086400\x00",
		"13/cmdline":   "", // a zombie
		"self/cmdline": marker + "\x00",
	})
	got, err := survivors(root)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	if want := []int{10, 12}; !slices.Equal(got, want) {
		t.Errorf("survivors = %v, want %v", got, want)
	}
}
