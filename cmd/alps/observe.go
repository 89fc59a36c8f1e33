package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"alps"
	"alps/internal/coord"
	"alps/internal/core"
	"alps/internal/metrics"
	"alps/internal/obs"
	"alps/internal/trace"
	"alps/internal/tshist"
)

// errlog is the structured logger for operational messages (stderr).
// Cycle lines from -log go to stdout via cycleLogger instead, keeping
// machine-readable telemetry separable from the consumption stream.
var errlog = slog.New(slog.NewTextHandler(os.Stderr, nil))

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

	lastHealthLog time.Time // control-loop goroutine only

	lateness func() time.Duration // reads the runner's health; set by runUntilSignal
	admin    http.Handler         // /admin/config; set by runUntilSignal

	// Fleet feedback for -coord: cumulative consumption per principal
	// and completed cycles, read by the coordinator link's heartbeats
	// from its own goroutine while the control loop appends.
	fleetMu       sync.Mutex
	fleetConsumed map[int64]float64
	fleetCycles   int64
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
		reg:           obs.NewRegistry(),
		journal:       obs.NewJournal(obs.DefaultJournalSize),
		addr:          opt.addr,
		fleetConsumed: make(map[int64]float64),
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

// auditor is the stack's accuracy auditor, nil-tolerant so config paths
// that run without an observability stack can still share code.
func (st *obsStack) auditor() *trace.Auditor {
	if st == nil {
		return nil
	}
	return st.aud
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
	st.fleetMu.Lock()
	for _, t := range rec.Tasks {
		st.fleetConsumed[int64(t.ID)] += t.Consumed.Seconds()
	}
	st.fleetCycles++
	st.fleetMu.Unlock()
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
	if st.quantum > 0 && e.Lateness > latenessSpikeQuanta*st.quantum {
		if st.rec.Trigger("lateness_spike") {
			errlog.Warn("cycle lateness spike", "lateness", e.Lateness, "quantum", st.quantum)
		}
	}
	if now := time.Now(); now.Sub(st.lastHealthLog) >= healthLogEvery {
		st.lastHealthLog = now
		st.logHealthLine(rec.Index)
	}
}

// latencyQuantiles is the /healthz quantile block: p50/p99 of the
// runner's cycle lateness and per-task sample duration, in seconds.
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
		"Wall time spent reading one task's progress from /proc.", obs.LatencyBuckets)
	return latencyQuantiles{
		CycleLatenessP50:  cl.Quantile(0.50),
		CycleLatenessP99:  cl.Quantile(0.99),
		SampleDurationP50: sd.Quantile(0.50),
		SampleDurationP99: sd.Quantile(0.99),
	}
}

// logHealthLine emits the periodic one-line health summary: latency
// quantiles plus the auditor's live accuracy numbers.
func (st *obsStack) logHealthLine(cycle int) {
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

// fleetGauges snapshots the heartbeat feedback for the -coord link:
// cumulative per-principal consumption, the auditor's live RMS share
// error, and the cycle count as a liveness signal.
func (st *obsStack) fleetGauges() coord.ShardGauges {
	st.fleetMu.Lock()
	consumed := make(map[int64]float64, len(st.fleetConsumed))
	for id, c := range st.fleetConsumed {
		consumed[id] = c
	}
	cycles := st.fleetCycles
	st.fleetMu.Unlock()
	return coord.ShardGauges{
		Consumed:      consumed,
		RMSShareError: st.aud.RMSShareError(),
		Cycles:        cycles,
		TraceDumps:    st.rec.Dumps(),
	}
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

// serve starts the observability HTTP server (/metrics, /healthz,
// /debug/journal, /debug/pprof/) when -http was given. The bound address
// is logged to stderr, so ":0" works for tests. Returns a shutdown func.
func (st *obsStack) serve(health func() any) (shutdown func(), err error) {
	if st.addr == "" {
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", st.addr)
	if err != nil {
		return nil, fmt.Errorf("observability listener on %s: %w", st.addr, err)
	}
	mux := obs.NewMux(st.reg, health, st.journal)
	mux.Handle("/debug/trace", st.rec)
	if st.hist != nil {
		mux.Handle("/debug/timeline", st.hist.Handler())
	}
	if st.admin != nil {
		mux.Handle("/admin/config", st.admin)
	}
	srv := hardenedServer(mux)
	go func() { _ = srv.Serve(ln) }()
	// The history sampler only runs while the endpoint that serves it is
	// up: without -http the timeline would be retained but unreadable.
	histStop := make(chan struct{})
	if st.hist != nil {
		go st.hist.Run(histStop)
	}
	errlog.Info("observability listening", "addr", ln.Addr().String())
	return func() {
		close(histStop)
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}, nil
}

// dumpOnSIGUSR1 dumps the journal to stderr whenever SIGUSR1 arrives,
// and fires a manual flight-recorder dump whenever SIGUSR2 arrives.
// Returns a stop func.
func (st *obsStack) dumpOnSIGUSR1() func() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGUSR1)
	ch2 := make(chan os.Signal, 1)
	signal.Notify(ch2, syscall.SIGUSR2)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-ch:
				_ = st.journal.WriteText(os.Stderr)
			case <-ch2:
				if !st.rec.Trigger("manual") {
					errlog.Info("manual trace dump suppressed (cooldown, or nothing recorded yet)")
				}
			case <-done:
				return
			}
		}
	}()
	return func() {
		signal.Stop(ch)
		signal.Stop(ch2)
		close(done)
	}
}
