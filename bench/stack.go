package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"alps/internal/ckpt"
	"alps/internal/core"
	"alps/internal/metrics"
	"alps/internal/obs"
	"alps/internal/osproc"
	"alps/internal/trace"
	"alps/internal/tshist"
)

// The production configuration: what cmd/alps builds by default.
const (
	quantum    = 20 * time.Millisecond // -q
	maxQuantum = 40 * time.Millisecond // -maxq: the overload guard's bound
	// latenessSpikeQuanta mirrors cmd/alps's flight-recorder trigger.
	latenessSpikeQuanta = 2
	historyEvery        = time.Second // -timeline-every
	refreshEvery        = time.Second // spawn -children
)

const shareErrHelp = "Per-principal relative share error per cycle: |consumed/total - share/S| / (share/S)."

// stack mirrors cmd/alps's observability stack (newObsStack, wire and
// recordCycle in cmd/alps/observe.go) and its per-cycle checkpoint writer
// (newCheckpointWriter in cmd/alps/persist.go). It leaves out what only
// serves other flags: the -coord consumption map, the 30 s health log line
// and the -log cycle logger.
type stack struct {
	reg      *obs.Registry
	journal  *obs.Journal
	rec      *trace.Recorder
	aud      *trace.Auditor
	hist     *tshist.Store
	ckpt     *ckpt.Writer
	lateness func() time.Duration

	mu        sync.Mutex
	saves     []time.Duration // checkpoint write times
	saveErr   error
	histTimes []time.Duration // tshist.Store.Sample times
}

func newStack(statePath string) *stack {
	st := &stack{reg: obs.NewRegistry(), journal: obs.NewJournal(obs.DefaultJournalSize)}
	// cmd/alps logs each dump and writes it only under -trace-dir.
	st.rec = trace.NewRecorder(trace.RecorderConfig{})
	st.aud = trace.NewAuditor(trace.AuditorConfig{
		OnDrift: func(float64) { st.rec.Trigger("share_drift") },
	})
	st.rec.Register(st.reg)
	st.aud.Register(st.reg)
	st.hist = tshist.New(tshist.Config{Source: st.reg, Every: historyEvery})
	writes := st.reg.Counter("alps_checkpoint_writes_total",
		"State checkpoints written to the -state file (cycles may coalesce).")
	errs := st.reg.Counter("alps_checkpoint_errors_total",
		"Checkpoint writes that failed (scheduling continues).")
	dur := st.reg.Histogram("alps_checkpoint_write_seconds",
		"Wall time of one atomic checkpoint write.", obs.LatencyBuckets)
	st.ckpt = ckpt.NewWriter(statePath, func(d time.Duration, err error) {
		st.mu.Lock()
		defer st.mu.Unlock()
		if err != nil {
			errs.Add(1)
			st.rec.Trigger("checkpoint_failure")
			st.saveErr = err
			return
		}
		dur.Observe(d.Seconds())
		writes.Add(1)
		st.saves = append(st.saves, d)
	})
	return st
}

// config returns the Runner configuration cmd/alps builds for f.
func (st *stack) config(f *fleet) osproc.Config {
	cfg := osproc.Config{
		Quantum:  quantum,
		Samplers: runtime.GOMAXPROCS(0),
		Overload: osproc.OverloadConfig{Enable: true, MaxQuantum: maxQuantum},
		Metrics:  st.reg,
		Observer: obs.Multi(obs.NewMetricsObserver(st.reg), st.rec, st.aud),
		OnCycle: func(rec core.CycleRecord) {
			st.recordCycle(rec)
			st.aud.OnCycle(rec)
		},
		Checkpoint: func(s osproc.RunnerState) { st.ckpt.Offer(s) },
	}
	if f.refresh != nil {
		cfg.RefreshEvery = refreshEvery
		cfg.Refresh = f.refresh
	}
	return cfg
}

// recordCycle is cmd/alps's per-cycle journal entry, share-error
// histograms and lateness trigger.
func (st *stack) recordCycle(rec core.CycleRecord) {
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
	if errs, err := metrics.ShareErrors(consumed, shares); err == nil {
		for i, t := range rec.Tasks {
			st.reg.Histogram(
				fmt.Sprintf(`alps_share_error_ratio{task="%d"}`, t.ID),
				shareErrHelp, obs.RatioBuckets,
			).Observe(errs[i])
		}
	}
	if e.Lateness > latenessSpikeQuanta*quantum {
		st.rec.Trigger("lateness_spike")
	}
}

// runHistory samples the retained history every second, as
// tshist.Store.Run does, timing each Sample. It returns an idempotent stop
// that waits for the sampler to exit.
func (st *stack) runHistory() func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tk := time.NewTicker(historyEvery)
		defer tk.Stop()
		for {
			select {
			case now := <-tk.C:
				t0 := time.Now()
				st.hist.Sample(now)
				d := time.Since(t0)
				st.mu.Lock()
				st.histTimes = append(st.histTimes, d)
				st.mu.Unlock()
			case <-stop:
				return
			}
		}
	}()
	return sync.OnceFunc(func() {
		close(stop)
		<-done
	})
}
