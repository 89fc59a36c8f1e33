package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a set of named metrics with Prometheus text exposition.
// Metric getters are idempotent: asking twice for the same name returns
// the same metric, so independent components can share a registry without
// coordinating (two Runners given one registry share counters). A metric
// name may carry a label set inline — `alps_share_error_ratio{task="3"}`
// — in which case all children of the base name form one family sharing
// HELP/TYPE lines. Asking for an existing name with a different metric
// type panics: that is a programming error, not a runtime condition.
//
// All operations are safe for concurrent use; counter/gauge/histogram
// updates are lock-free atomics off the hot path's critical sections.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

type family struct {
	name, help string
	typ        string // "counter" | "gauge" | "histogram"
	children   map[string]any
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// splitName separates an inline label block from a metric name:
// `a_total{x="y"}` -> (`a_total`, `{x="y"}`).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// metric returns (creating if needed) the child metric for name, built by
// mk. Panics on a type clash.
func (r *Registry) metric(name, help, typ string, mk func() any) any {
	base, labels := splitName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[base]
	if !ok {
		f = &family{name: base, help: help, typ: typ, children: make(map[string]any)}
		r.fams[base] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", base, f.typ, typ))
	}
	m, ok := f.children[labels]
	if !ok {
		m = mk()
		f.children[labels] = m
	}
	return m
}

// Counter returns the counter with the given name, registering it if
// needed. Counters only go up.
func (r *Registry) Counter(name, help string) *Counter {
	return r.metric(name, help, "counter", func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge with the given name, registering it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.metric(name, help, "gauge", func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// Re-registering the same name replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	base, labels := splitName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[base]
	if !ok {
		f = &family{name: base, help: help, typ: "gauge", children: make(map[string]any)}
		r.fams[base] = f
	} else if f.typ != "gauge" {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as gauge", base, f.typ))
	}
	f.children[labels] = gaugeFunc(fn)
}

// CounterFunc registers a counter whose value is read at scrape time.
// The function must be monotonically non-decreasing (e.g. it loads an
// atomic counter that is only ever added to). This lets a component that
// already keeps its own atomic counters — like osproc's health telemetry
// — export them without double bookkeeping. Re-registering the same name
// replaces the function.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	base, labels := splitName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[base]
	if !ok {
		f = &family{name: base, help: help, typ: "counter", children: make(map[string]any)}
		r.fams[base] = f
	} else if f.typ != "counter" {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as counter", base, f.typ))
	}
	f.children[labels] = counterFunc(fn)
}

// Histogram returns the fixed-bucket histogram with the given name,
// registering it if needed. buckets are upper bounds in ascending order;
// a +Inf bucket is implicit. The bucket slice of the first registration
// wins for the family.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.metric(name, help, "histogram", func() any { return newHistogram(buckets) }).(*Histogram)
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 gauge.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		cur := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(cur) + d)
		if g.bits.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

type gaugeFunc func() float64

type counterFunc func() int64

// Histogram is a fixed-bucket histogram with atomic bucket counts.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    Gauge
	n      atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Quantile returns a bucket-interpolated estimate of the q-quantile
// (0 ≤ q ≤ 1) of the observed distribution, the same estimate
// Prometheus's histogram_quantile() computes: the sample rank is located
// in the cumulative bucket counts and interpolated linearly within the
// bucket that contains it. Samples in the +Inf overflow bucket clamp the
// estimate to the highest finite bound (there is no upper edge to
// interpolate toward). An empty histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(n)
	var cum int64
	for i, b := range h.bounds {
		c := h.counts[i].Load()
		if c > 0 && float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (b-lo)*frac
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// LatencyBuckets is a general-purpose duration bucket ladder in seconds,
// from 10µs to 10s.
var LatencyBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// RatioBuckets is a bucket ladder for error ratios, from 0.1% to 500%.
var RatioBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// Sample is one metric child's scrape-time value, the unit of a registry
// Snapshot. Labels is the raw inline label block (`{task="3"}`, possibly
// empty) exactly as the metric was registered.
type Sample struct {
	Name   string
	Labels string
	Value  float64
}

// Snapshot enumerates every metric as flat (name, labels, value) samples
// in deterministic order (families by name, children by label set).
// Counters and gauges — including func-backed ones — yield one sample
// each; a histogram yields its `_sum` and `_count` (per-bucket counts are
// a scrape concern, not a time-series one). This is the feed the
// retained-history store samples on its cadence.
func (r *Registry) Snapshot() []Sample {
	// Snapshot the structure under the lock, evaluate values after —
	// func metrics take their owners' locks and must not nest under ours.
	type child struct {
		labels string
		m      any
	}
	type fam struct {
		name string
		kids []child
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]fam, 0, len(names))
	for _, n := range names {
		f := r.fams[n]
		kids := make([]child, 0, len(f.children))
		for l, m := range f.children {
			kids = append(kids, child{l, m})
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i].labels < kids[j].labels })
		fams = append(fams, fam{f.name, kids})
	}
	r.mu.Unlock()

	out := make([]Sample, 0, len(fams))
	for _, f := range fams {
		for _, k := range f.kids {
			switch v := k.m.(type) {
			case *Counter:
				out = append(out, Sample{f.name, k.labels, float64(v.Value())})
			case *Gauge:
				out = append(out, Sample{f.name, k.labels, v.Value()})
			case gaugeFunc:
				out = append(out, Sample{f.name, k.labels, v()})
			case counterFunc:
				out = append(out, Sample{f.name, k.labels, float64(v())})
			case *Histogram:
				out = append(out,
					Sample{f.name + "_sum", k.labels, v.Sum()},
					Sample{f.name + "_count", k.labels, float64(v.Count())})
			}
		}
	}
	return out
}

// WritePrometheus renders every metric in Prometheus text exposition
// format (families sorted by name, children by label set).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	// Snapshot family/child structure under the lock; values are read
	// atomically afterwards.
	type child struct {
		labels string
		m      any
	}
	type fam struct {
		*family
		kids []child
	}
	fams := make([]fam, 0, len(names))
	for _, n := range names {
		f := r.fams[n]
		kids := make([]child, 0, len(f.children))
		for l, m := range f.children {
			kids = append(kids, child{l, m})
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i].labels < kids[j].labels })
		fams = append(fams, fam{f, kids})
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, k := range f.kids {
			if err := writeMetric(w, f.name, k.labels, k.m); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeMetric(w io.Writer, name, labels string, m any) error {
	switch v := m.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, labels, v.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, fmtFloat(v.Value()))
		return err
	case gaugeFunc:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, fmtFloat(v()))
		return err
	case counterFunc:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, labels, v())
		return err
	case *Histogram:
		var cum int64
		for i, b := range v.bounds {
			cum += v.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(labels, fmt.Sprintf(`le="%s"`, fmtFloat(b))), cum); err != nil {
				return err
			}
		}
		cum += v.counts[len(v.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(labels, `le="+Inf"`), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, fmtFloat(v.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, v.Count())
		return err
	}
	return fmt.Errorf("obs: unknown metric type %T", m)
}

// mergeLabels combines an inline label block with an extra label pair:
// ({task="3"}, le="0.01") -> {task="3",le="0.01"}.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// escapeHelp escapes a HELP string per the Prometheus text exposition
// format: backslash and line feed are the only characters that would
// otherwise break the line-oriented parser.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Handler returns an http.Handler serving the registry in Prometheus text
// exposition format (the /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// NewMetricsObserver returns an Observer that feeds the registry: one
// counter per event kind (alps_sched_events_total{kind=...}) plus gauges
// for the scheduler's tick and completed-cycle counters. It is the glue
// between the event stream and the scrape surface, cheap enough to leave
// on in production.
func NewMetricsObserver(reg *Registry) Observer {
	const help = "Scheduling events emitted by the ALPS core algorithm, by kind."
	counters := make([]*Counter, len(kindNames))
	for _, k := range Kinds() {
		counters[k] = reg.Counter(fmt.Sprintf(`alps_sched_events_total{kind=%q}`, k.String()), help)
	}
	tick := reg.Gauge("alps_sched_tick", "Quantum counter of the ALPS core scheduler.")
	cycles := reg.Gauge("alps_sched_cycles", "Completed allocation cycles.")
	measured := reg.Counter("alps_sched_measurements_total", "Task progress measurements taken (lazy sampling makes this < ticks x tasks).")
	postponed := reg.Counter("alps_sched_postponements_total", "Measurements postponed more than one quantum out (the §2.3 optimization).")
	return ObserverFunc(func(e Event) {
		if int(e.Kind) < len(counters) {
			counters[e.Kind].Inc()
		}
		switch e.Kind {
		case KindMeasure:
			measured.Inc()
		case KindPostpone:
			postponed.Inc()
		case KindQuantumEnd:
			tick.Set(float64(e.Tick))
			cycles.Set(float64(e.Cycle))
		}
	})
}
