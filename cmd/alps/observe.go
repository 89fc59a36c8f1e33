package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync"
	"syscall"
	"time"

	"alps"
	"alps/internal/core"
	"alps/internal/metrics"
	"alps/internal/obs"
	"alps/internal/trace"
	"alps/internal/tshist"
)

// stdio is stdout or stderr as a run writes them. A write that finds
// the reader gone (EPIPE: the -log pipe or the stderr pipe closed)
// closes outputLost, and the side loop stops the run. The SIGPIPE that
// write raises cannot say so itself: a client hanging up on an HTTP or
// coordinator socket raises the same signal.
type stdio struct{ f *os.File }

func (w stdio) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	if errors.Is(err, syscall.EPIPE) {
		loseOutput()
	}
	return n, err
}

var (
	stdout, stderr = stdio{os.Stdout}, stdio{os.Stderr}
	outputLost     = make(chan struct{})
	loseOutput     = sync.OnceFunc(func() { close(outputLost) })
)

// errlog is the structured logger for operational messages (stderr).
// Cycle lines from -log go to stdout via cycleLogger instead, keeping
// machine-readable telemetry separable from the consumption stream.
var errlog = slog.New(slog.NewTextHandler(stderr, nil))

// latenessSpikeQuanta is the flight-recorder lateness trigger: a cycle
// recorded this many quanta late means the control loop materially lost
// its grid (scheduler stall, suspended controller), and the window that
// led up to it is worth keeping.
const latenessSpikeQuanta = 2

// healthLogEvery is the cadence of the periodic health log line.
const healthLogEvery = 30 * time.Second

// obsStack bundles one run's observability surface: the metrics
// registry, the bounded cycle journal, the decision-event feed, the
// always-on flight recorder with its accuracy auditor, and the optional
// HTTP listener (-http).
type obsStack struct {
	reg     *obs.Registry
	journal *obs.Journal
	rec     *trace.Recorder
	aud     *trace.Auditor
	hist    *tshist.Store     // nil unless -timeline-every > 0
	dumper  *trace.FileDumper // nil unless -trace-dir was given
	addr    string
	quantum time.Duration // set by wire; scales the lateness trigger

	lateness func() time.Duration // reads the runner's health; set by runUntilSignal
}

// obsOptions parameterizes an obsStack: the -http listen address, the
// accuracy auditor's window and drift threshold (-audit-window,
// -audit-drift) and the retained-history sampling cadence
// (-timeline-every; 0 disables /debug/timeline). Zero audit values fall
// through to the trace.Auditor defaults.
type obsOptions struct {
	addr          string
	auditWindow   int
	auditDrift    float64
	timelineEvery time.Duration
}

func newObsStack(opt obsOptions) *obsStack {
	st := &obsStack{
		reg:     obs.NewRegistry(),
		journal: obs.NewJournal(obs.DefaultJournalSize),
		addr:    opt.addr,
	}
	st.rec = trace.NewRecorder(trace.RecorderConfig{
		OnDump: func(d trace.Dump) {
			errlog.Warn("flight recorder dump", "reason", d.Reason,
				"seq", d.Seq, "events", len(d.Events))
			if st.dumper != nil {
				st.dumper.Dump(d)
			}
		},
	})
	st.aud = trace.NewAuditor(trace.AuditorConfig{
		Window:         opt.auditWindow,
		DriftThreshold: opt.auditDrift,
		OnDrift: func(rms float64) {
			if st.rec.Trigger("share_drift") {
				errlog.Warn("share-error drift", "rms", fmt.Sprintf("%.3f", rms))
			}
		},
	})
	st.rec.Register(st.reg)
	st.aud.Register(st.reg)
	if opt.timelineEvery > 0 {
		st.hist = tshist.New(tshist.Config{Source: st.reg, Every: opt.timelineEvery})
	}
	return st
}

// setTraceDir routes flight-recorder dumps to Chrome trace files in dir
// (the -trace-dir flag), on a worker goroutine so triggers never block
// the control loop. A dump that finds the worker's queue full is
// dropped and counted, so a missing file is visible on /metrics.
func (st *obsStack) setTraceDir(dir string) error {
	if dir == "" {
		return nil
	}
	d, err := trace.NewFileDumper(dir)
	if err != nil {
		return err
	}
	d.OnWrite = func(path string, _ trace.Dump, err error) {
		if err != nil {
			errlog.Error("trace dump write failed", "path", path, "err", err)
			return
		}
		errlog.Info("trace dump written", "path", path)
	}
	st.reg.CounterFunc("alps_trace_dumps_dropped_total",
		"Flight-recorder dumps dropped because the -trace-dir writer was busy.", d.Dropped)
	st.dumper = d
	return nil
}

// close drains the trace-dump worker; call once the runner has stopped.
func (st *obsStack) close() {
	if st.dumper != nil {
		st.dumper.Close()
	}
}

// wire installs the stack into a runner config: the decision-event
// metrics feed fanned out to the flight recorder and the accuracy
// auditor, the health-counter and latency-histogram registry, and an
// OnCycle chain that records the journal entry, the per-principal
// share-error histograms and the audit window before invoking inner
// (the -log cycle logger).
func (st *obsStack) wire(cfg *alps.RunnerConfig, inner func(core.CycleRecord)) {
	st.quantum = cfg.Quantum
	cfg.Metrics = st.reg
	cfg.Observer = obs.Multi(obs.NewMetricsObserver(st.reg), st.rec, st.aud)
	cfg.OnCycle = func(rec core.CycleRecord) {
		st.recordCycle(rec)
		st.aud.OnCycle(rec)
		if inner != nil {
			inner(rec)
		}
	}
}

const shareErrHelp = "Per-principal relative share error per cycle: |consumed/total - share/S| / (share/S)."

func (st *obsStack) recordCycle(rec core.CycleRecord) {
	e := obs.JournalEntry{
		Cycle:  rec.Index,
		Tick:   rec.Tick,
		At:     time.Now(),
		Length: rec.Length,
		Tasks:  make([]obs.JournalTask, 0, len(rec.Tasks)),
	}
	if st.lateness != nil {
		e.Lateness = st.lateness()
	}
	consumed := make([]float64, 0, len(rec.Tasks))
	shares := make([]float64, 0, len(rec.Tasks))
	for _, t := range rec.Tasks {
		e.Tasks = append(e.Tasks, obs.JournalTask{
			ID: int64(t.ID), Share: t.Share,
			Consumed: t.Consumed, BlockedQuanta: t.BlockedQuanta,
		})
		consumed = append(consumed, t.Consumed.Seconds())
		shares = append(shares, float64(t.Share))
	}
	st.journal.Append(e)
	// An all-idle cycle has no defined share error; skip it rather than
	// pollute the histograms.
	if errs, err := metrics.ShareErrors(consumed, shares); err == nil {
		for i, t := range rec.Tasks {
			st.reg.Histogram(
				fmt.Sprintf(`alps_share_error_ratio{task="%d"}`, t.ID),
				shareErrHelp, obs.RatioBuckets,
			).Observe(errs[i])
		}
	}
	if e.Lateness > latenessSpikeQuanta*st.quantum {
		if st.rec.Trigger("lateness_spike") {
			errlog.Warn("cycle lateness spike", "lateness", e.Lateness, "quantum", st.quantum)
		}
	}
}

// latencyQuantiles is the /healthz quantile block: p50/p99 of the
// runner's cycle lateness and /proc read duration, in seconds.
type latencyQuantiles struct {
	CycleLatenessP50  float64
	CycleLatenessP99  float64
	SampleDurationP50 float64
	SampleDurationP99 float64
}

// quantiles reads the runner's latency histograms off the shared
// registry (registered by the runner when wire() handed it cfg.Metrics).
func (st *obsStack) quantiles() latencyQuantiles {
	cl := st.reg.Histogram("alps_runner_cycle_lateness_seconds",
		"Distribution of per-step timer lateness.", obs.LatencyBuckets)
	sd := st.reg.Histogram("alps_runner_sample_duration_seconds",
		"Wall time of one /proc/<pid>/stat read.", obs.LatencyBuckets)
	return latencyQuantiles{
		CycleLatenessP50:  cl.Quantile(0.50),
		CycleLatenessP99:  cl.Quantile(0.99),
		SampleDurationP50: sd.Quantile(0.50),
		SampleDurationP99: sd.Quantile(0.99),
	}
}

// logHealthLine emits the periodic one-line health summary: the newest
// journalled cycle (-1 before the first completes), latency quantiles
// and the auditor's live accuracy numbers. It runs off the control loop,
// so it reads the cycle from the journal, never from the core.
func (st *obsStack) logHealthLine() {
	cycle := -1
	if entries := st.journal.Snapshot(); len(entries) > 0 {
		cycle = entries[len(entries)-1].Cycle
	}
	q := st.quantiles()
	errlog.Info("health",
		"cycle", cycle,
		"lateness_p50", time.Duration(q.CycleLatenessP50*float64(time.Second)).Round(time.Microsecond),
		"lateness_p99", time.Duration(q.CycleLatenessP99*float64(time.Second)).Round(time.Microsecond),
		"sample_p50", time.Duration(q.SampleDurationP50*float64(time.Second)).Round(time.Microsecond),
		"sample_p99", time.Duration(q.SampleDurationP99*float64(time.Second)).Round(time.Microsecond),
		"rms_share_error", fmt.Sprintf("%.3f", st.aud.RMSShareError()),
		"sampling_reduction", fmt.Sprintf("%.2f", st.aud.SamplingReductionRatio()),
		"convergence_cycles", st.aud.ConvergenceCycles(),
	)
}

// hardenedServer wraps a handler in an http.Server with the read/write
// bounds every alps-owned listener uses: a slow-loris or runaway client
// must not be able to pin a connection (or a handler goroutine) forever.
// The write timeout stays wide enough for a 30s /debug/pprof/profile.
func hardenedServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// listen serves h on addr through hardenedServer, for the shard's
// observability listener and "alps coord" alike. It returns the bound
// address, so ":0" works for tests, and a shutdown func that gives
// in-flight requests one second.
func listen(addr string, h http.Handler) (net.Addr, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := hardenedServer(h)
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}, nil
}

// serve starts the observability HTTP server (/metrics, /healthz,
// /debug/journal, /debug/trace, /debug/timeline, /debug/pprof/ and admin
// at /admin/config) when -http was given. The bound address is logged to
// stderr. Returns a shutdown func.
func (st *obsStack) serve(health func() any, admin http.Handler) (shutdown func(), err error) {
	if st.addr == "" {
		return func() {}, nil
	}
	mux := obs.NewMux(st.reg, health, st.journal)
	mux.Handle("/debug/trace", st.rec)
	if st.hist != nil {
		mux.Handle("/debug/timeline", st.hist.Handler())
	}
	mux.Handle("/admin/config", admin)
	addr, stopHTTP, err := listen(st.addr, mux)
	if err != nil {
		return nil, fmt.Errorf("observability listener on %s: %w", st.addr, err)
	}
	// The history sampler only runs while the endpoint that serves it is
	// up: without -http the timeline would be retained but unreadable.
	histStop := make(chan struct{})
	if st.hist != nil {
		go st.hist.Run(histStop)
	}
	errlog.Info("observability listening", "addr", addr.String())
	return func() {
		close(histStop)
		stopHTTP()
	}, nil
}
