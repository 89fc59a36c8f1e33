package obs

import (
	"strings"
	"sync"
	"testing"
)

func expo(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alps_ticks_total", "Algorithm invocations.")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("Value = %d, want 3", c.Value())
	}
	out := expo(t, r)
	for _, want := range []string{
		"# HELP alps_ticks_total Algorithm invocations.",
		"# TYPE alps_ticks_total counter",
		"alps_ticks_total 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestGetterIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "")
	b := r.Counter("x_total", "")
	if a != b {
		t.Error("same name should return the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("type clash should panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter(`evts_total{kind="measure"}`, "events").Add(5)
	r.Counter(`evts_total{kind="cycle"}`, "events").Add(2)
	out := expo(t, r)
	if strings.Count(out, "# TYPE evts_total counter") != 1 {
		t.Errorf("family should share one TYPE line:\n%s", out)
	}
	// Children sorted by label set: cycle before measure.
	ci := strings.Index(out, `evts_total{kind="cycle"} 2`)
	mi := strings.Index(out, `evts_total{kind="measure"} 5`)
	if ci < 0 || mi < 0 || ci > mi {
		t.Errorf("bad child lines (cycle@%d measure@%d):\n%s", ci, mi, out)
	}
}

func TestGaugeOps(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("lateness_seconds", "")
	g.Set(1.5)
	if g.Value() != 1.5 {
		t.Errorf("Set = %v, want 1.5", g.Value())
	}
	g.Add(0.5)
	if g.Value() != 2 {
		t.Errorf("Add = %v, want 2", g.Value())
	}
	if !strings.Contains(expo(t, r), "lateness_seconds 2\n") {
		t.Errorf("gauge exposition:\n%s", expo(t, r))
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 7.25
	r.GaugeFunc("live_value", "computed at scrape", func() float64 { return v })
	if !strings.Contains(expo(t, r), "live_value 7.25\n") {
		t.Errorf("exposition:\n%s", expo(t, r))
	}
	v = 8
	if !strings.Contains(expo(t, r), "live_value 8\n") {
		t.Errorf("scrape should recompute:\n%s", expo(t, r))
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	out := expo(t, r)
	for _, want := range []string{
		`lat_seconds_bucket{le="0.01"} 2`, // 0.005 and 0.01 (le is inclusive)
		`lat_seconds_bucket{le="0.1"} 3`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if got := h.Sum(); got < 5.56 || got > 5.57 {
		t.Errorf("Sum = %v, want ~5.565", got)
	}
}

func TestHistogramLabeled(t *testing.T) {
	r := NewRegistry()
	r.Histogram(`err_ratio{task="3"}`, "", []float64{0.1}).Observe(0.05)
	out := expo(t, r)
	if !strings.Contains(out, `err_ratio_bucket{task="3",le="0.1"} 1`) {
		t.Errorf("labeled bucket line missing:\n%s", out)
	}
	if !strings.Contains(out, `err_ratio_count{task="3"} 1`) {
		t.Errorf("labeled count line missing:\n%s", out)
	}
}

// TestConcurrentScrape hammers updates against exposition under -race.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h", "", LatencyBuckets)
	g := r.Gauge("g", "")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			c.Inc()
			h.Observe(0.01)
			g.Add(1)
			// A writer may also register new labeled children.
			r.Counter(`lab_total{k="v"}`, "").Inc()
		}
	}()
	for i := 0; i < 50; i++ {
		_ = expo(t, r)
	}
	wg.Wait()
	if c.Value() == 0 {
		t.Error("no increments observed")
	}
}

func TestMetricsObserver(t *testing.T) {
	r := NewRegistry()
	o := NewMetricsObserver(r)
	o.Observe(Event{Kind: KindMeasure, Tick: 1})
	o.Observe(Event{Kind: KindPostpone, Tick: 1})
	o.Observe(Event{Kind: KindQuantumEnd, Tick: 1, N: 1, Cycle: 4})
	out := expo(t, r)
	for _, want := range []string{
		`alps_sched_events_total{kind="measure"} 1`,
		`alps_sched_events_total{kind="postpone"} 1`,
		`alps_sched_events_total{kind="quantum_end"} 1`,
		`alps_sched_events_total{kind="cycle"} 0`,
		"alps_sched_tick 1",
		"alps_sched_cycles 4",
		"alps_sched_measurements_total 1",
		"alps_sched_postponements_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

// TestSnapshot: the flat sample enumeration the history store feeds on
// — deterministic order, func metrics evaluated, histograms flattened
// to _sum/_count.
func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Gauge("b_level", "").Set(2.5)
	r.Counter(`a_total{k="y"}`, "").Add(3)
	r.Counter(`a_total{k="x"}`, "").Add(1)
	r.GaugeFunc("c_func", "", func() float64 { return 7 })
	h := r.Histogram("d_latency", "", []float64{1})
	h.Observe(0.5)
	h.Observe(2)

	got := r.Snapshot()
	want := []Sample{
		{"a_total", `{k="x"}`, 1},
		{"a_total", `{k="y"}`, 3},
		{"b_level", "", 2.5},
		{"c_func", "", 7},
		{"d_latency_sum", "", 2.5},
		{"d_latency_count", "", 2},
	}
	if len(got) != len(want) {
		t.Fatalf("Snapshot returned %d samples, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
