package trace

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"alps/internal/obs"
)

// RecorderEvents is the flight recorder's ring capacity. At the ~10
// events a two-task quantum emits, 8192 events cover several hundred
// quanta — seconds of history at Q=10ms.
const RecorderEvents = 8192

// RecorderCooldown is the minimum substrate time between dumps:
// anomalies arrive in bursts (one late quantum makes the next late too),
// and one window already covers the whole burst.
const RecorderCooldown = 2 * time.Second

// Dump is one flight-recorder window handed to the OnDump callback.
type Dump struct {
	Reason string        // trigger name, e.g. "lateness_spike"
	At     time.Duration // substrate timestamp of the trigger
	Seq    int64         // 1-based dump ordinal
	Events []obs.Event   // the window, oldest first
}

// WriteChrome serializes the dump window as Chrome trace-event JSON,
// annotating otherData with the trigger and the emitting substrate.
func (d Dump) WriteChrome(w io.Writer, substrate string) error {
	return WriteChrome(w, d.Events, map[string]any{
		"reason": d.Reason, "at_us": d.At.Microseconds(), "seq": d.Seq,
		"substrate": substrate,
	})
}

// RecorderConfig parameterizes a Recorder. The zero value is usable.
type RecorderConfig struct {
	// OnDump receives each triggered window. It runs synchronously on
	// the triggering goroutine — the control loop for automatic
	// triggers — so implementations that touch the disk should hand off
	// to a worker (see FileDumper). Nil means triggers only count.
	OnDump func(Dump)
}

// Recorder is the always-on flight recorder: a bounded ring of the most
// recent obs events, recording continuously at a cost small enough to
// leave enabled in production (one short critical section and one slice
// store per event; Chrome conversion happens only at dump time). When an
// anomaly trigger fires — automatically on overload degradation and
// process drop, externally via Trigger for lateness spikes, checkpoint
// failures and share-error drift — it snapshots the window and hands it
// to OnDump, rate-limited by the cooldown.
type Recorder struct {
	cfg RecorderConfig

	mu     sync.Mutex
	ring   *obs.Ring[obs.Event]
	lastAt time.Duration // newest event timestamp: the recorder's clock

	dumpedAt   time.Duration
	everDumped bool

	total      atomic.Int64
	dumps      atomic.Int64
	suppressed atomic.Int64
}

// NewRecorder creates a flight recorder.
func NewRecorder(cfg RecorderConfig) *Recorder {
	return &Recorder{cfg: cfg, ring: obs.NewRing[obs.Event](RecorderEvents)}
}

// Observe implements obs.Observer: record the event and fire the
// automatic triggers (overload degradation, process drop) that are
// visible in the stream itself.
func (r *Recorder) Observe(e obs.Event) {
	r.mu.Lock()
	r.ring.Push(e)
	if e.At > r.lastAt {
		r.lastAt = e.At
	}
	r.total.Add(1)

	var d *Dump
	switch {
	case e.Kind == obs.KindDegrade && e.Reason == obs.ReasonOverload:
		d = r.triggerLocked("overload_degrade")
	case e.Kind == obs.KindDead:
		d = r.triggerLocked("process_drop")
	}
	r.mu.Unlock()
	if d != nil && r.cfg.OnDump != nil {
		r.cfg.OnDump(*d)
	}
}

// Trigger fires an external anomaly trigger (lateness spike, checkpoint
// failure, share-error drift, manual SIGUSR2). It reports whether a dump
// was emitted (false while in cooldown or when the ring is empty).
func (r *Recorder) Trigger(reason string) bool {
	r.mu.Lock()
	d := r.triggerLocked(reason)
	r.mu.Unlock()
	if d == nil {
		return false
	}
	if r.cfg.OnDump != nil {
		r.cfg.OnDump(*d)
	}
	return true
}

// triggerLocked applies the cooldown and snapshots the window. Caller
// holds r.mu.
func (r *Recorder) triggerLocked(reason string) *Dump {
	if r.ring.Len() == 0 {
		return nil // nothing recorded yet
	}
	if r.everDumped && r.lastAt-r.dumpedAt < RecorderCooldown {
		r.suppressed.Add(1)
		return nil
	}
	r.dumpedAt = r.lastAt
	r.everDumped = true
	seq := r.dumps.Add(1)
	return &Dump{Reason: reason, At: r.lastAt, Seq: seq, Events: r.ring.Snapshot()}
}

// Snapshot returns the current window, oldest first.
func (r *Recorder) Snapshot() []obs.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Snapshot()
}

// WriteChrome serializes the current window as Chrome trace-event JSON.
func (r *Recorder) WriteChrome(w io.Writer, extra map[string]any) error {
	return WriteChrome(w, r.Snapshot(), extra)
}

// SetJSONDownloadHeaders stamps the response headers a trace download
// endpoint uses: an explicit JSON content type (so nothing is
// content-sniffed into an unnamed octet stream) and a Content-Disposition
// attachment filename the browser saves the trace under.
func SetJSONDownloadHeaders(h http.Header, filename string) {
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", filename))
}

// ServeHTTP serves the current window as a downloadable Chrome trace
// (the /debug/trace endpoint).
func (r *Recorder) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	SetJSONDownloadHeaders(w.Header(), "alps-trace.json")
	_ = r.WriteChrome(w, map[string]any{"source": "/debug/trace"})
}

// Dumps returns the number of flight-recorder windows dumped so far; a
// shard heartbeats it, so its row in the coordinator's status shows
// which shard's dump to read.
func (r *Recorder) Dumps() int64 { return r.dumps.Load() }

// Register exposes the recorder's bookkeeping on a metrics registry.
func (r *Recorder) Register(reg *obs.Registry) {
	reg.CounterFunc("alps_trace_events_total",
		"Events recorded by the flight recorder.", r.total.Load)
	reg.CounterFunc("alps_trace_dumps_total",
		"Flight-recorder windows dumped by anomaly triggers.", r.dumps.Load)
	reg.CounterFunc("alps_trace_dumps_suppressed_total",
		"Triggers suppressed by the dump cooldown.", r.suppressed.Load)
	reg.GaugeFunc("alps_trace_ring_capacity_events",
		"Flight-recorder ring capacity.", func() float64 { return RecorderEvents })
}

// FileDumper writes flight-recorder dumps as Chrome trace files in a
// directory, on its own goroutine so the triggering control loop never
// waits for the disk. Dumps arriving while the worker is busy are
// dropped (the cooldown makes this rare); Close drains the queue.
type FileDumper struct {
	dir string
	// OnWrite, if set, observes each attempted write (for logging).
	OnWrite func(path string, d Dump, err error)

	ch      chan Dump
	wg      sync.WaitGroup
	dropped atomic.Int64
}

// NewFileDumper creates the directory if needed and starts the worker.
func NewFileDumper(dir string) (*FileDumper, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: create dump dir: %w", err)
	}
	f := &FileDumper{dir: dir, ch: make(chan Dump, 4)}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for d := range f.ch {
			f.write(d)
		}
	}()
	return f, nil
}

// Dump implements the RecorderConfig.OnDump signature: enqueue without
// blocking.
func (f *FileDumper) Dump(d Dump) {
	select {
	case f.ch <- d:
	default:
		f.dropped.Add(1)
	}
}

// Dropped returns the number of dumps discarded because the worker was
// busy.
func (f *FileDumper) Dropped() int64 { return f.dropped.Load() }

// Close drains pending dumps and stops the worker.
func (f *FileDumper) Close() {
	close(f.ch)
	f.wg.Wait()
}

func (f *FileDumper) write(d Dump) {
	path := filepath.Join(f.dir, fmt.Sprintf("trace-%s-%04d.json", d.Reason, d.Seq))
	err := func() error {
		file, err := os.Create(path)
		if err != nil {
			return err
		}
		werr := WriteChrome(file, d.Events, map[string]any{
			"reason": d.Reason, "at_us": d.At.Microseconds(), "seq": d.Seq,
		})
		if cerr := file.Close(); werr == nil {
			werr = cerr
		}
		return werr
	}()
	if f.OnWrite != nil {
		f.OnWrite(path, d, err)
	}
}
