package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"alps/internal/core"
	"alps/internal/obs"
	"alps/internal/osproc"
	"alps/internal/trace"
)

// layer names a module whose calls the traced run times. The Step span is
// the parent of every other span of its quantum; core is not a span but
// the Step's self time.
type layer uint8

const (
	layerStep layer = iota
	layerSample
	layerSignal
	layerObs
	layerOnCycle
	layerCkpt
	layerRefresh
	numLayers
)

var layerNames = [numLayers]string{"step", "osproc.sample", "osproc.signal", "obs", "obs.oncycle", "ckpt", "osproc.refresh"}

// span is one timed call, in nanoseconds since the tracer's origin.
type span struct {
	start, end int64
	step       int32
	layer      layer
}

const (
	// keepSpans bounds the spans retained for the Chrome trace (a few MB of
	// JSON); later quanta are aggregated but not kept.
	keepSpans = 1 << 16
	// scratchSpans is the room for one quantum's spans once retention
	// stops; a catch-up Step over idle-fleet needs ~30k.
	scratchSpans = 1 << 17
)

// tracer records spans around the Runner's public seams — Config.Sys,
// Observer, OnCycle, Checkpoint and Refresh — into a preallocated buffer.
// Pool workers append by atomic index. The loop goroutine folds each
// Step's spans into per-layer aggregates when the Step returns.
type tracer struct {
	origin time.Time
	on     atomic.Bool // recording; the wrappers pass straight through when off
	step   atomic.Int32
	buf    []span
	n      atomic.Int64
	// lo is where the current Step's spans begin; spans before it are kept
	// for the Chrome trace until frozen.
	lo      int64
	frozen  bool
	dropped atomic.Int64
	// idle is the workload's sleeper PIDs, read-only while tracing.
	idle map[int]bool

	// Counters the wrappers update, possibly from pool workers.
	sampleErrs, blocked, signalErrs, signalIdle, flips atomic.Int64

	// Aggregates, loop goroutine only.
	calls [numLayers]int64
	busy  [numLayers]int64
	durs  [numLayers][]int64
	self  []int64
}

func newTracer(idle map[int]bool) *tracer {
	return &tracer{origin: time.Now(), buf: make([]span, keepSpans+scratchSpans), idle: idle}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// record appends a span of layer l from start to now.
func (t *tracer) record(l layer, start int64) {
	end := t.now()
	i := t.n.Add(1) - 1
	if i >= int64(len(t.buf)) {
		t.dropped.Add(1)
		return
	}
	t.buf[i] = span{start: start, end: end, step: t.step.Load(), layer: l}
}

// beginStep opens the next Step and returns its start.
func (t *tracer) beginStep() int64 {
	t.step.Add(1)
	return t.now()
}

// endStep folds the Step's child spans into the aggregates, including the
// Step's self time: its span minus the union of its children.
func (t *tracer) endStep(start, end int64) {
	hi := min(t.n.Load(), int64(len(t.buf)))
	kids := t.buf[t.lo:hi]
	for _, s := range kids {
		d := s.end - s.start
		t.calls[s.layer]++
		t.busy[s.layer] += d
		t.durs[s.layer] = append(t.durs[s.layer], d)
	}
	t.self = append(t.self, end-start-covered(kids, start, end))
	t.calls[layerStep]++
	t.busy[layerStep] += end - start
	t.durs[layerStep] = append(t.durs[layerStep], end-start)
	if hi < int64(len(t.buf)) {
		t.buf[hi] = span{start: start, end: end, step: t.step.Load(), layer: layerStep}
		hi++
	}
	if !t.frozen && hi <= keepSpans {
		t.lo = hi
	} else {
		t.frozen = true
	}
	t.n.Store(t.lo)
}

// timed runs fn as a span of layer l while tracing is on.
func (t *tracer) timed(l layer, fn func()) {
	if !t.on.Load() {
		fn()
		return
	}
	start := t.now()
	fn()
	t.record(l, start)
}

// wrap installs the timing wrappers on cfg's seams.
func (t *tracer) wrap(cfg *osproc.Config) {
	sys := cfg.Sys
	if sys == nil {
		sys = osproc.RealSys{}
	}
	cfg.Sys = tracedSys{Sys: sys, t: t}
	cfg.Observer = tracedObserver{inner: cfg.Observer, t: t}
	if ck := cfg.Checkpoint; ck != nil {
		cfg.Checkpoint = func(s osproc.RunnerState) { t.timed(layerCkpt, func() { ck(s) }) }
	}
	if oc := cfg.OnCycle; oc != nil {
		cfg.OnCycle = func(rec core.CycleRecord) { t.timed(layerOnCycle, func() { oc(rec) }) }
	}
	if rf := cfg.Refresh; rf != nil {
		cfg.Refresh = func() (m map[core.TaskID][]int) {
			t.timed(layerRefresh, func() { m = rf() })
			return m
		}
	}
}

// tracedSys times the /proc reads (osproc.sample) and signal deliveries
// (osproc.signal) the Runner makes through Config.Sys.
type tracedSys struct {
	osproc.Sys
	t *tracer
}

func (s tracedSys) ReadStat(pid int) (osproc.Stat, error) {
	if !s.t.on.Load() {
		return s.Sys.ReadStat(pid)
	}
	start := s.t.now()
	st, err := s.Sys.ReadStat(pid)
	s.t.record(layerSample, start)
	if err != nil {
		s.t.sampleErrs.Add(1)
	} else if st.Blocked() {
		s.t.blocked.Add(1)
	}
	return st, err
}

func (s tracedSys) Stop(pid int) error     { return s.signal(pid, s.Sys.Stop) }
func (s tracedSys) Cont(pid int) error     { return s.signal(pid, s.Sys.Cont) }
func (s tracedSys) StopGroup(pg int) error { return s.signal(pg, s.Sys.StopGroup) }
func (s tracedSys) ContGroup(pg int) error { return s.signal(pg, s.Sys.ContGroup) }
func (s tracedSys) signal(target int, kill func(int) error) error {
	if !s.t.on.Load() {
		return kill(target)
	}
	start := s.t.now()
	err := kill(target)
	s.t.record(layerSignal, start)
	if err != nil {
		s.t.signalErrs.Add(1)
	}
	if s.t.idle[target] {
		s.t.signalIdle.Add(1)
	}
	return err
}

// tracedObserver times the production observer fan-out, one span per
// event, and counts eligibility flips.
type tracedObserver struct {
	inner obs.Observer
	t     *tracer
}

func (o tracedObserver) Observe(e obs.Event) {
	if !o.t.on.Load() {
		o.inner.Observe(e)
		return
	}
	start := o.t.now()
	o.inner.Observe(e)
	o.t.record(layerObs, start)
	if e.Kind == obs.KindTransition {
		o.t.flips.Add(1)
	}
}

// writeChrome writes the retained spans as Chrome trace JSON (opens in
// Perfetto). Overlapping spans of one layer — pool workers — go to
// separate lanes so every track nests properly; the document is checked
// with trace.Validate before it is written.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	kept := t.buf[:t.lo]
	slices.SortFunc(kept, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	var lanes [numLayers][]int64 // end of the last span in each lane
	events := make([]trace.ChromeEvent, 0, len(kept)+32)
	for _, s := range kept {
		ls := lanes[s.layer]
		lane := 0
		for lane < len(ls) && ls[lane] > s.start {
			lane++
		}
		if lane == len(ls) {
			ls = append(ls, 0)
		}
		ls[lane] = s.end
		lanes[s.layer] = ls
		events = append(events, trace.ChromeEvent{
			Name: layerNames[s.layer], Cat: "alps", Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: laneTID(s.layer, lane),
			Args: map[string]any{"step": s.step},
		})
	}
	for l, ls := range lanes {
		for lane := range ls {
			events = append(events, trace.ChromeEvent{
				Name: "thread_name", Ph: "M", PID: 1, TID: laneTID(layer(l), lane),
				Args: map[string]any{"name": fmt.Sprintf("%s #%d", layerNames[l], lane)},
			})
		}
	}
	data, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	})
	if err != nil {
		return err
	}
	if err := trace.Validate(data); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func laneTID(l layer, lane int) int64 { return int64(l)*100 + int64(lane) + 1 }
