// Package tshist is a stdlib-only retained-history store: bounded
// per-series rings sampled from an obs.Registry on a configurable
// cadence. A point-in-time scrape can show that a gauge is wrong *now*;
// only a retained timeline can show a gauge beating against a duty
// cycle, an EWMA killing that beat, or a rebalancer's damping reacting
// to convergence — the closed observability loop this repo's auditors
// feed. The store is deliberately small: no downsampling, no
// compression, just the last DefaultCapacity points of every registry
// series, served as JSON or CSV at /debug/timeline (and, federated, at
// /fleet/timeline).
package tshist

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"alps/internal/obs"
)

// DefaultCapacity is the per-series ring length: at the default 1s
// cadence, ~8.5 minutes of history.
const DefaultCapacity = 512

// DefaultEvery is the sampling cadence when Config leaves Every zero.
const DefaultEvery = time.Second

// Config parameterizes a Store.
type Config struct {
	// Source is the registry whose counters and gauges are sampled.
	Source *obs.Registry
	// Every is the sampling cadence Tick enforces (DefaultEvery when 0).
	// Sample ignores it — callers with their own grid (a coordinator
	// tick, a benchmark round) sample explicitly.
	Every time.Duration
	// Now overrides time.Now (virtual clocks in tests and coordsim).
	Now func() time.Time
}

// Point is one retained sample: wall-clock stamp and value.
type Point struct {
	UnixNano int64
	Value    float64
}

// MarshalJSON renders a point as a compact [unix_nano, value] pair —
// the timeline document repeats points thousands of times, and an
// object per point would triple its size.
func (p Point) MarshalJSON() ([]byte, error) {
	return json.Marshal([2]any{p.UnixNano, p.Value})
}

// UnmarshalJSON accepts the [unix_nano, value] pair form.
func (p *Point) UnmarshalJSON(b []byte) error {
	var raw [2]json.Number
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	n, err := raw[0].Int64()
	if err != nil {
		return err
	}
	v, err := raw[1].Float64()
	if err != nil {
		return err
	}
	p.UnixNano, p.Value = n, v
	return nil
}

// Series is one metric child's retained history, oldest point first.
type Series struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"`
	Points []Point `json:"points"`
}

// Timeline is the /debug/timeline document.
type Timeline struct {
	// SampledEveryNs is the configured cadence (informational; explicit
	// Sample calls may run on a different grid).
	SampledEveryNs int64 `json:"sampled_every_ns"`
	// Capacity is the per-series ring bound.
	Capacity int `json:"capacity"`
	// Samples counts Sample invocations since start (monotone; readers
	// diff it to detect a stalled sampler).
	Samples int64    `json:"samples"`
	Series  []Series `json:"series"`
}

// seriesKey identifies one registry child.
type seriesKey struct{ name, labels string }

// Store retains bounded history for every series of a registry. All
// methods are safe for concurrent use; Sample holds the store lock for
// the duration of one registry snapshot (microseconds for hundreds of
// series), so a concurrent scrape briefly queues rather than tearing.
type Store struct {
	cfg Config
	now func() time.Time

	mu      sync.Mutex
	rings   map[seriesKey]*obs.Ring[Point]
	order   []seriesKey // first-seen order; snapshots sort by name anyway
	next    time.Time   // Tick's next due sample
	samples int64
}

// New builds a store. It takes no first sample — history begins with
// the first Sample or Tick call.
func New(cfg Config) *Store {
	if cfg.Every <= 0 {
		cfg.Every = DefaultEvery
	}
	now := time.Now
	if cfg.Now != nil {
		now = cfg.Now
	}
	return &Store{cfg: cfg, now: now, rings: make(map[seriesKey]*obs.Ring[Point])}
}

// Sample unconditionally appends one point per registry series, stamped
// at now (zero: the store's clock). New series appear as the registry
// grows; series whose metric vanished simply stop growing.
func (s *Store) Sample(now time.Time) {
	if s.cfg.Source == nil {
		return
	}
	if now.IsZero() {
		now = s.now()
	}
	samples := s.cfg.Source.Snapshot()
	nano := now.UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples++
	for _, sm := range samples {
		// JSON has no encoding for NaN/Inf, and a non-finite reading (a
		// gauge like last_heartbeat_age before the first beat) carries no
		// timeline information anyway: the series simply has no point.
		if math.IsNaN(sm.Value) || math.IsInf(sm.Value, 0) {
			continue
		}
		key := seriesKey{sm.Name, sm.Labels}
		r, ok := s.rings[key]
		if !ok {
			r = obs.NewRing[Point](DefaultCapacity)
			s.rings[key] = r
			s.order = append(s.order, key)
		}
		r.Push(Point{UnixNano: nano, Value: sm.Value})
	}
}

// Tick samples only when the configured cadence has elapsed since the
// last Tick-driven sample. Cheap when not due (one lock, one compare),
// so callers on a fast grid — a coordinator ticking every few
// milliseconds — just call it every pass.
func (s *Store) Tick(now time.Time) {
	if now.IsZero() {
		now = s.now()
	}
	s.mu.Lock()
	if now.Before(s.next) {
		s.mu.Unlock()
		return
	}
	s.next = now.Add(s.cfg.Every)
	s.mu.Unlock()
	s.Sample(now)
}

// Run samples on the configured cadence until ctx is done — the
// production loop for processes without their own tick grid.
func (s *Store) Run(stop <-chan struct{}) {
	t := time.NewTicker(s.cfg.Every)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			s.Sample(now)
		case <-stop:
			return
		}
	}
}

// Snapshot returns the retained timeline, series sorted by (name,
// labels), points oldest first.
func (s *Store) Snapshot() Timeline {
	s.mu.Lock()
	keys := make([]seriesKey, len(s.order))
	copy(keys, s.order)
	tl := Timeline{
		SampledEveryNs: int64(s.cfg.Every),
		Capacity:       DefaultCapacity,
		Samples:        s.samples,
	}
	series := make([]Series, 0, len(keys))
	for _, k := range keys {
		series = append(series, Series{Name: k.name, Labels: k.labels, Points: s.rings[k].Snapshot()})
	}
	s.mu.Unlock()
	// order is first-seen; sort for a stable document.
	for i := 1; i < len(series); i++ {
		for j := i; j > 0 && less(series[j], series[j-1]); j-- {
			series[j], series[j-1] = series[j-1], series[j]
		}
	}
	tl.Series = series
	return tl
}

func less(a, b Series) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.Labels < b.Labels
}

// SeriesPoints returns one series' retained points (oldest first), or
// nil if it was never sampled. Benchmarks and gates read single series
// without marshalling the whole document.
func (s *Store) SeriesPoints(name, labels string) []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.rings[seriesKey{name, labels}]
	if !ok {
		return nil
	}
	return r.Snapshot()
}

// WriteJSON renders the timeline document as indented JSON.
func (s *Store) WriteJSON(w interface{ Write([]byte) (int, error) }) error {
	data, err := json.MarshalIndent(s.Snapshot(), "", " ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteCSV renders the timeline flat: one row per point,
// `name,labels,unix_nano,value`, header first. Labels keep their raw
// `{k="v"}` form, quoted per CSV since they contain commas and quotes.
func (s *Store) WriteCSV(w interface{ Write([]byte) (int, error) }) error {
	tl := s.Snapshot()
	if _, err := fmt.Fprintln(w, "name,labels,unix_nano,value"); err != nil {
		return err
	}
	for _, sr := range tl.Series {
		labels := sr.Labels
		if labels != "" {
			labels = `"` + csvEscape(labels) + `"`
		}
		for _, p := range sr.Points {
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%g\n", sr.Name, labels, p.UnixNano, p.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

func csvEscape(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			out = append(out, '"')
		}
		out = append(out, s[i])
	}
	return string(out)
}

// Handler serves the timeline: JSON by default, CSV with ?format=csv.
func (s *Store) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "csv" {
			w.Header().Set("Content-Type", "text/csv; charset=utf-8")
			_ = s.WriteCSV(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = s.WriteJSON(w)
	})
}
