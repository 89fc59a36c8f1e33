package tshist

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"alps/internal/metrics"
	"alps/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// goldenStore builds a deterministic store: a fixed virtual clock, a
// registry exercising every sample shape (gauge, labeled counter pair,
// func metrics, histogram sum/count), three samples one second apart
// with values moving between them.
func goldenStore() *Store {
	reg := obs.NewRegistry()
	g := reg.Gauge("demo_level", "")
	c1 := reg.Counter(`demo_events_total{kind="a"}`, "")
	c2 := reg.Counter(`demo_events_total{kind="b"}`, "")
	reg.GaugeFunc("demo_func", "", func() float64 { return 0.25 })
	h := reg.Histogram("demo_latency_seconds", "", []float64{0.01, 0.1})

	now := time.Unix(1700000000, 0).UTC()
	s := New(Config{Source: reg, Every: time.Second})
	for i := 0; i < 3; i++ {
		g.Set(float64(i) * 1.5)
		c1.Add(int64(i))
		c2.Inc()
		h.Observe(0.05)
		s.Sample(now)
		now = now.Add(time.Second)
	}
	return s
}

// TestGolden pins the /debug/timeline JSON and CSV schemas byte for
// byte: series ordering (sorted by name then labels), compact
// [unix_nano, value] point pairs, the cadence/capacity/samples header,
// and CSV quoting of label blocks. Run with -update after an
// intentional schema change.
func TestGolden(t *testing.T) {
	s := goldenStore()
	for _, tc := range []struct {
		file  string
		write func(*bytes.Buffer) error
	}{
		{"timeline.golden.json", func(b *bytes.Buffer) error { return s.WriteJSON(b) }},
		{"timeline.golden.csv", func(b *bytes.Buffer) error { return s.WriteCSV(b) }},
	} {
		var buf bytes.Buffer
		if err := tc.write(&buf); err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		golden := filepath.Join("testdata", tc.file)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with -update to create the golden file)", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s drifted:\n--- got ---\n%s\n--- want ---\n%s", tc.file, buf.Bytes(), want)
		}
	}
}

// TestHandler checks the HTTP surface round-trips: the JSON document
// unmarshals back into a Timeline, and ?format=csv switches renderings.
func TestHandler(t *testing.T) {
	s := goldenStore()
	h := s.Handler()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/timeline", nil))
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("JSON Content-Type = %q", ct)
	}
	var tl Timeline
	if err := json.Unmarshal(w.Body.Bytes(), &tl); err != nil {
		t.Fatalf("unmarshal timeline: %v", err)
	}
	if tl.Samples != 3 || tl.Capacity != DefaultCapacity || len(tl.Series) == 0 {
		t.Fatalf("timeline header wrong: %+v", tl)
	}
	for _, sr := range tl.Series {
		if len(sr.Points) != 3 {
			t.Fatalf("series %s%s has %d points, want 3", sr.Name, sr.Labels, len(sr.Points))
		}
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/timeline?format=csv", nil))
	if ct := w.Header().Get("Content-Type"); ct != "text/csv; charset=utf-8" {
		t.Fatalf("CSV Content-Type = %q", ct)
	}
	if !bytes.HasPrefix(w.Body.Bytes(), []byte("name,labels,unix_nano,value\n")) {
		t.Fatalf("CSV missing header: %q", w.Body.String()[:40])
	}
}

// TestRingEviction walks the ring across its wrap boundary: exactly at
// capacity nothing is lost, one past it the oldest point is gone, and
// far past it the window holds exactly the newest DefaultCapacity points
// in order.
func TestRingEviction(t *testing.T) {
	const c = DefaultCapacity
	reg := obs.NewRegistry()
	g := reg.Gauge("v", "")
	now := time.Unix(0, 0)
	s := New(Config{Source: reg})

	sampleN := func(n int) {
		for i := 0; i < n; i++ {
			g.Set(float64(s.samplesTaken()))
			s.Sample(now)
			now = now.Add(time.Second)
		}
	}
	values := func() []float64 {
		var vals []float64
		for _, p := range s.SeriesPoints("v", "") {
			vals = append(vals, p.Value)
		}
		return vals
	}

	sampleN(c) // exactly full: 0..c-1
	if got := values(); len(got) != c || got[0] != 0 || got[c-1] != c-1 {
		t.Fatalf("at capacity: %v", got)
	}
	sampleN(1) // one eviction: 1..c
	if got := values(); len(got) != c || got[0] != 1 || got[c-1] != c {
		t.Fatalf("one past capacity: %v", got)
	}
	sampleN(c + 7) // far past: c+8..2c+7
	got := values()
	if len(got) != c {
		t.Fatalf("len = %d, want %d", len(got), c)
	}
	for i, v := range got {
		if v != float64(c+8+i) {
			t.Fatalf("after wrap: %v, want %d..%d", got, c+8, 2*c+7)
		}
	}
	// Timestamps must stay strictly increasing across the wrap.
	pts := s.SeriesPoints("v", "")
	for i := 1; i < len(pts); i++ {
		if pts[i].UnixNano <= pts[i-1].UnixNano {
			t.Fatalf("timestamps not increasing: %v", pts)
		}
	}
}

// samplesTaken reads the sample counter (test helper).
func (s *Store) samplesTaken() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples
}

// TestTickCadence: Tick on a fast grid samples only on the cadence.
func TestTickCadence(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("v", "").Set(1)
	now := time.Unix(0, 0)
	s := New(Config{Source: reg, Every: 100 * time.Millisecond})
	for i := 0; i < 100; i++ { // 1s of 10ms ticks
		s.Tick(now)
		now = now.Add(10 * time.Millisecond)
	}
	if got := s.samplesTaken(); got != 10 {
		t.Fatalf("100 ticks at 10ms with a 100ms cadence took %d samples, want 10", got)
	}
}

// TestConcurrentSampleScrape is the -race hammer: samplers, a metric
// writer growing the registry, and scrapers of both renderings all run
// concurrently. The assertions are weak (no panic, monotone sample
// counter) — the point is the race detector seeing every pair.
func TestConcurrentSampleScrape(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Source: reg})
	h := s.Handler()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() { // grows the registry while sampling runs
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			reg.Gauge(fmt.Sprintf(`hammer_gauge{i="%d"}`, i%7), "").Set(float64(i))
			reg.Counter("hammer_total", "").Inc()
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.Sample(time.Now())
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(csv bool) {
			defer wg.Done()
			url := "/debug/timeline"
			if csv {
				url += "?format=csv"
			}
			for {
				select {
				case <-stop:
					return
				default:
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
					if rec.Code != 200 {
						t.Errorf("scrape: HTTP %d", rec.Code)
						return
					}
				}
			}
		}(w == 0)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if s.samplesTaken() == 0 {
		t.Fatal("hammer took no samples")
	}
}

// TestBeatAnalysis reads a beat off retained history, as a timeline
// consumer does: a period-5 sawtooth gauge and its EWMA are sampled into
// the store, and over the retained tail (past the EWMA's transient)
// metrics.BeatRatio reports the raw wobble while the EWMA cuts it by far
// more than 5x.
func TestBeatAnalysis(t *testing.T) {
	const tail = 50
	reg := obs.NewRegistry()
	raw, smooth := reg.Gauge("raw", ""), reg.Gauge("smooth", "")
	s := New(Config{Source: reg})
	var ewma metrics.EWMA
	epoch := time.Unix(0, 0)
	for i := 0; i < 100; i++ {
		v := 1.0 + 0.5*float64(i%5)
		ewma.Add(v)
		raw.Set(v)
		smooth.Set(ewma.Value())
		s.Sample(epoch.Add(time.Duration(i) * time.Second))
	}
	series := func(name string) []float64 {
		pts := s.SeriesPoints(name, "")
		if len(pts) < tail {
			t.Fatalf("%s: %d points retained, want at least %d", name, len(pts), tail)
		}
		var vals []float64
		for _, p := range pts[len(pts)-tail:] {
			vals = append(vals, p.Value)
		}
		return vals
	}
	rr, sr := metrics.BeatRatio(series("raw")), metrics.BeatRatio(series("smooth"))
	if rr < 1.0 {
		t.Fatalf("raw beat ratio %.3f implausibly small", rr)
	}
	if sr <= 0 || rr/sr < 5 {
		t.Fatalf("EWMA reduced the beat ratio %.3f -> %.3f (%.1fx), want >= 5x", rr, sr, rr/sr)
	}
}

// Non-finite readings (a staleness gauge at +Inf before the first
// heartbeat, a NaN ratio) must not enter the rings: JSON has no encoding
// for them, and one poisoned point would make the whole /fleet/timeline
// document unmarshalable.
func TestSampleSkipsNonFinite(t *testing.T) {
	reg := obs.NewRegistry()
	phase := 0
	reg.GaugeFunc("finite", "", func() float64 { return float64(phase) })
	reg.GaugeFunc("sometimes_inf", "", func() float64 {
		if phase == 0 {
			return math.Inf(1)
		}
		return 7
	})
	reg.GaugeFunc("always_nan", "", func() float64 { return math.NaN() })

	s := New(Config{Source: reg})
	base := time.Unix(100, 0)
	s.Sample(base) // inf phase
	phase = 1
	s.Sample(base.Add(time.Second))

	if pts := s.SeriesPoints("finite", ""); len(pts) != 2 {
		t.Fatalf("finite series has %d points, want 2", len(pts))
	}
	pts := s.SeriesPoints("sometimes_inf", "")
	if len(pts) != 1 || pts[0].Value != 7 {
		t.Fatalf("inf-then-finite series = %+v, want the single finite point", pts)
	}
	if pts := s.SeriesPoints("always_nan", ""); pts != nil {
		t.Fatalf("NaN series retained %d points", len(pts))
	}
	if _, err := json.Marshal(s.Snapshot()); err != nil {
		t.Fatalf("timeline with non-finite sources does not marshal: %v", err)
	}
}
