package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"alps/internal/core"
	"alps/internal/osproc"
)

// options are the benchmark's settings for one invocation.
type options struct {
	seed  int64
	quick bool
	spin  string // alps-spin binary, for linear10-threads
	out   string // directory for Chrome traces
}

// plan is how long one workload invocation measures: the untraced run
// gives the end-to-end metrics, the traced run (if any) the per-layer ones.
type plan struct {
	untraced, traced time.Duration
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one workload invocation reports.
type result struct {
	metrics   map[string]metric
	timings   map[string]summary // distributions printed beside the metrics
	attempted int64
	failed    int64
	problems  []string // failed correctness checks
	tracePath string
}

func (r *result) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// timing scales vals in place, summarizes them under key and returns
// their median and 99th percentile.
func (r *result) timing(key string, vals []float64, scale float64) (p50, p99 float64) {
	for i := range vals {
		vals[i] *= scale
	}
	s := summarize(vals)
	r.timings[key] = s
	return s.p50, percentile(vals, 0.99)
}

// warmup is the part of each run before measuring starts.
func warmup(d time.Duration, quick bool) time.Duration {
	if quick {
		return 500 * time.Millisecond
	}
	return min(max(d/10, time.Second), 5*time.Second)
}

// runWorkload spawns w's processes, runs the untraced and traced runs the
// plan asks for over them, and kills and reaps them on every exit path.
func runWorkload(ctx context.Context, w *workload, o options, p plan) (res *result, err error) {
	left, err := survivors("/proc")
	if err != nil {
		return nil, err
	}
	if len(left) > 0 {
		return nil, fmt.Errorf("processes of an earlier run survive (pids %v); kill them first", left)
	}
	f, err := newFleet()
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := f.close(); err == nil {
			err = cerr
		}
	}()
	if err := w.spawn(f, rand.New(rand.NewSource(o.seed)), o); err != nil {
		return nil, err
	}
	// Let the processes finish exec and runtime start-up first, so set-up
	// time measures NewRunner over a settled workload.
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(500 * time.Millisecond):
	}
	res = &result{metrics: make(map[string]metric), timings: make(map[string]summary)}
	var ref *runStats
	if p.untraced > 0 {
		setups := 11
		if o.quick {
			setups = 3
		}
		if ref, err = runOnce(ctx, f, p.untraced, warmup(p.untraced, o.quick), setups, nil); err != nil {
			return nil, err
		}
		ref.report(res)
	}
	if p.traced > 0 {
		tr := newTracer(f.idle)
		rs, err := runOnce(ctx, f, p.traced, warmup(p.traced, o.quick), 1, tr)
		if err != nil {
			return nil, err
		}
		rs.reportLayers(res, tr)
		if ref != nil {
			base := ref.stepP50us()
			res.set("trace.overhead_pct", "%", 100*(rs.stepP50us()-base)/base)
			res.set("trace.cpu_overhead_pct", "%", rs.alpsCPUPct()-ref.alpsCPUPct())
		}
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return nil, err
		}
		res.tracePath = filepath.Join(o.out, w.name+".trace.json")
		meta := map[string]any{"workload": w.name, "seed": o.seed, "quantum_ms": quantum.Milliseconds()}
		if err := tr.writeChrome(res.tracePath, meta); err != nil {
			res.problem("chrome trace: %v", err)
		}
	}
	return res, nil
}

// runStats is one run's raw measurements.
type runStats struct {
	st        *stack
	truth     *truth
	setupCPU  []int64 // ns
	setupWall []time.Duration
	steps     []time.Duration
	late      []time.Duration
	stretched int
	wall      time.Duration
	alpsCPU   int64 // process CPU minus the ground-truth sampler's, ns
	cycles    []float64
	cpu0      []int64 // ground truth when measuring starts and ends
	cpu1      []int64
	h0, h1    osproc.Health
	rt0, rt1  []metrics.Sample
	saves     []time.Duration
	hist      []time.Duration
	problems  []string
}

func (rs *runStats) problem(format string, args ...any) {
	rs.problems = append(rs.problems, fmt.Sprintf(format, args...))
}

// runOnce builds the production configuration over f, times setups
// NewRunner calls, warms up, then drives the loop for d. With a tracer the
// seams are wrapped and spans are recorded while measuring. Every exit path
// releases the workload before returning.
func runOnce(ctx context.Context, f *fleet, d, warm time.Duration, setups int, tr *tracer) (*runStats, error) {
	dir, err := os.MkdirTemp("", "alps-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st := newStack(filepath.Join(dir, "state.ckpt"))
	defer st.ckpt.Close()
	rs := &runStats{st: st, truth: newTruth(f)}
	cfg := st.config(f)
	if tr != nil {
		tr.wrap(&cfg)
	}
	production := cfg.OnCycle
	cfg.OnCycle = func(rec core.CycleRecord) {
		production(rec)
		rs.truth.notify(rec.Index)
	}

	// Set-up is timed in process CPU: NewRunner runs while the workload
	// still spins, so its wall time also counts waiting for a CPU behind the
	// spinners it has not stopped yet.
	var r *osproc.Runner
	for i := 0; i < setups; i++ {
		if r != nil {
			r.Release()
		}
		c0, t0 := cpuNS(rusageSelf), time.Now()
		if r, err = osproc.NewRunner(cfg, f.tasks); err != nil {
			return nil, fmt.Errorf("NewRunner: %w", err)
		}
		rs.setupWall = append(rs.setupWall, time.Since(t0))
		rs.setupCPU = append(rs.setupCPU, cpuNS(rusageSelf)-c0)
	}
	defer r.Release()
	st.lateness = func() time.Duration { return r.Health().LastLateness }
	go rs.truth.run()
	defer rs.truth.stop()
	stopHistory := st.runHistory()
	defer stopHistory()

	if err := drive(ctx, r, warm, nil, nil); err != nil {
		return nil, err
	}

	expect := int(d/quantum) + 64
	rs.steps = make([]time.Duration, 0, expect)
	rs.late = make([]time.Duration, 0, expect)
	c0 := r.Scheduler().Cycles()
	rs.h0 = r.Health()
	if rs.cpu0, err = rs.truth.read(); err != nil {
		return nil, err
	}
	rs.rt0 = readRuntime()
	sampler0 := rs.truth.threadCPU.Load()
	self0 := cpuNS(rusageSelf)
	saves0, hist0 := st.progress()
	t0 := time.Now()
	if tr != nil {
		tr.on.Store(true)
	}
	err = drive(ctx, r, d, tr, rs)
	if tr != nil {
		tr.on.Store(false)
	}
	if err != nil {
		return nil, err
	}
	rs.wall = time.Since(t0)
	rs.alpsCPU = cpuNS(rusageSelf) - self0 - (rs.truth.threadCPU.Load() - sampler0)
	rs.rt1 = readRuntime()
	rs.h1 = r.Health()
	if rs.cpu1, err = rs.truth.read(); err != nil {
		return nil, err
	}
	c1 := r.Scheduler().Cycles()

	// Σallowance ≡ t_c, read through the public accessors.
	s := r.Scheduler()
	var sum time.Duration
	for _, id := range s.Tasks() {
		a, err := s.Allowance(id)
		if err != nil {
			return nil, err
		}
		sum += a
	}
	if sum != s.CycleTimeRemaining() {
		rs.problem("Σallowance %v != cycle time remaining %v", sum, s.CycleTimeRemaining())
	}
	// No workload process may stay stopped once the runner lets go.
	r.Release()
	if left := awaitRunning(f.members); len(left) > 0 {
		rs.problem("pids %v still stopped after Release", left)
	}

	rs.truth.stop()
	if rs.truth.err != nil {
		rs.problem("ground truth: %v", rs.truth.err)
	}
	rs.cycles = rs.truth.cycleErrors(c0, c1)
	stopHistory()
	st.ckpt.Close()
	st.mu.Lock()
	defer st.mu.Unlock()
	rs.saves = slices.Clone(st.saves[saves0:])
	rs.hist = slices.Clone(st.histTimes[hist0:])
	if st.saveErr != nil {
		rs.problem("checkpoint write: %v", st.saveErr)
	}
	return rs, nil
}

// progress returns how many checkpoint writes and history samples the
// stack has timed so far.
func (st *stack) progress() (saves, hist int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.saves), len(st.histTimes)
}

// awaitRunning returns the PIDs still stopped after giving SIGCONT up to
// 100 ms to take effect.
func awaitRunning(pids []int) []int {
	for i := 0; ; i++ {
		left := stopped(pids)
		if len(left) == 0 || i == 50 {
			return left
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// drive runs the control loop for d exactly as Runner.Run does — a timer
// re-armed with EffectiveQuantum() after each Step — and, given rs, records
// each Step's wall time and how late its timer fired.
func drive(ctx context.Context, r *osproc.Runner, d time.Duration, tr *tracer, rs *runStats) error {
	end := time.Now().Add(d)
	eff := r.EffectiveQuantum()
	timer := time.NewTimer(eff)
	defer timer.Stop()
	due := time.Now().Add(eff)
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
		}
		wake := time.Now()
		var s0 int64
		if tr != nil {
			s0 = tr.beginStep()
		}
		done := r.Step()
		took := time.Since(wake)
		stepQ := eff
		eff = r.EffectiveQuantum()
		timer.Reset(eff)
		rearmed := time.Now()
		if tr != nil {
			tr.endStep(s0, s0+int64(took))
		}
		if rs != nil {
			rs.steps = append(rs.steps, took)
			rs.late = append(rs.late, wake.Sub(due))
			if stepQ > quantum {
				rs.stretched++
			}
		}
		due = rearmed.Add(eff)
		if done {
			return errors.New("every workload process exited")
		}
		if !wake.Before(end) {
			return nil
		}
	}
}

var runtimeMetrics = []string{"/gc/heap/allocs:objects", "/cpu/classes/gc/total:cpu-seconds"}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func (rs *runStats) alpsCPUPct() float64 {
	return 100 * float64(rs.alpsCPU) / float64(rs.wall)
}

func (rs *runStats) stepP50us() float64 {
	v := us(rs.steps)
	slices.Sort(v)
	return percentile(v, 0.5)
}

// us converts durations (or nanosecond counts) to microseconds.
func us[T time.Duration | int64](ds []T) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// failures counts per-process operations that failed while measuring.
func failures(h0, h1 osproc.Health) int64 {
	f := func(h osproc.Health) int64 {
		return h.VanishedPIDs + h.ReusedPIDs + h.SignalFailures + h.UnsignalablePIDs + h.RefreshErrors
	}
	return f(h1) - f(h0)
}

// report adds the untraced run's metrics: the end-to-end ones, plus the
// loop-level per-layer ones that tracing would distort.
func (rs *runStats) report(res *result) {
	res.problems = append(res.problems, rs.problems...)
	res.attempted += int64(len(rs.steps))
	res.failed += failures(rs.h0, rs.h1)
	steps := float64(len(rs.steps))

	if len(rs.cycles) == 0 {
		res.problem("no complete allocation cycle was measured")
	}
	p50, _ := res.timing("share_err_pct", rs.cycles, 100)
	res.set("share_err_p50_pct", "%", p50)
	res.set("share_err_p90_pct", "%", percentile(rs.cycles, 0.9))
	res.set("share.cycles", "count", float64(len(rs.cycles)))

	long := make([]float64, len(rs.cpu0))
	var delivered float64
	for i := range long {
		long[i] = float64(rs.cpu1[i] - rs.cpu0[i])
		delivered += long[i]
		if long[i] <= 0 {
			res.problem("busy task %d received no CPU while measuring", i)
		}
	}
	lr, _ := shareError(long, rs.truth.shares)
	res.set("share_longrun_err_pct", "%", 100*lr)
	res.set("workload_cpu_pct", "%", 100*delivered/(float64(rs.wall)*float64(runtime.NumCPU())))

	res.set("alps_cpu_pct", "%", rs.alpsCPUPct())
	var busy time.Duration
	for _, d := range rs.steps {
		busy += d
	}
	res.set("loop_util_pct", "%", 100*float64(busy)/float64(rs.wall))
	p50, p99 := res.timing("step_us", us(rs.steps), 1)
	res.set("step_p50_us", "us", p50)
	res.set("step.p99_us", "us", p99)
	res.set("quantum_stretch_pct", "%", 100*(float64(rs.wall)/steps-float64(quantum))/float64(quantum))
	missed := float64(rs.h1.MissedTicks - rs.h0.MissedTicks)
	res.set("missed_quanta_pct", "%", 100*missed/(steps+missed))

	p50, _ = res.timing("setup_s", us(rs.setupCPU), 1e-6)
	res.set("setup_s", "s", p50)
	res.timing("setup_wall_s", us(rs.setupWall), 1e-6)

	p50, p99 = res.timing("timer.late_us", us(rs.late), 1)
	res.set("timer.late_p50_us", "us", p50)
	res.set("timer.late_p99_us", "us", p99)
	res.set("timer.stretched_quanta_pct", "%", 100*float64(rs.stretched)/steps)

	allocs := rs.rt1[0].Value.Uint64() - rs.rt0[0].Value.Uint64()
	res.set("runtime.allocs_per_step", "count", float64(allocs)/steps)
	gc := rs.rt1[1].Value.Float64() - rs.rt0[1].Value.Float64()
	res.set("runtime.gc_cpu_pct", "%", 100*gc/rs.wall.Seconds())
}

// reportLayers adds the traced run's per-layer metrics.
func (rs *runStats) reportLayers(res *result, tr *tracer) {
	res.problems = append(res.problems, rs.problems...)
	res.attempted += int64(len(rs.steps))
	res.failed += failures(rs.h0, rs.h1)
	if n := tr.dropped.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d spans did not fit the trace buffer\n", n)
	}
	steps := float64(tr.calls[layerStep])
	perStep := func(v int64) float64 { return float64(v) / steps }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	calls := tr.calls[layerSample]
	p50, p99 := res.timing("osproc.sample_us", us(tr.durs[layerSample]), 1)
	res.set("sample.calls_per_step", "count", perStep(calls))
	res.set("sample.us_per_step", "us", perStep(tr.busy[layerSample])/1e3)
	res.set("sample.call_p50_us", "us", p50)
	res.set("sample.call_p99_us", "us", p99)
	res.set("sample.blocked_ratio", "ratio", ratio(tr.blocked.Load(), calls-tr.sampleErrs.Load()))
	res.set("sample.errors_per_1k", "count", 1000*ratio(tr.sampleErrs.Load(), calls))

	calls = tr.calls[layerSignal]
	p50, p99 = res.timing("osproc.signal_us", us(tr.durs[layerSignal]), 1)
	res.set("signal.calls_per_step", "count", perStep(calls))
	res.set("signal.calls_per_flip", "count", ratio(calls, tr.flips.Load()))
	res.set("signal.to_sleeping_ratio", "ratio", ratio(tr.signalIdle.Load(), calls))
	res.set("signal.us_per_step", "us", perStep(tr.busy[layerSignal])/1e3)
	res.set("signal.call_p50_us", "us", p50)
	res.set("signal.call_p99_us", "us", p99)
	res.set("signal.errors_per_1k", "count", 1000*ratio(tr.signalErrs.Load(), calls))

	p50, _ = res.timing("osproc.refresh_ms", us(tr.durs[layerRefresh]), 1e-3)
	res.set("refresh.calls", "count", float64(tr.calls[layerRefresh]))
	res.set("refresh.call_ms_p50", "ms", p50)
	res.set("refresh.us_per_s", "us", float64(tr.busy[layerRefresh])/1e3/rs.wall.Seconds())

	var self int64
	for _, v := range tr.self {
		self += v
	}
	_, p99 = res.timing("core.self_us", us(tr.self), 1)
	res.set("core.self_us_per_step", "us", perStep(self)/1e3)
	res.set("core.self_p99_us", "us", p99)
	res.set("core.sampling_reduction", "ratio", rs.st.aud.SamplingReductionRatio())

	p50, p99 = res.timing("ckpt.offer_us", us(tr.durs[layerCkpt]), 1)
	res.set("ckpt.offers", "count", float64(tr.calls[layerCkpt]))
	res.set("ckpt.offer_us_p50", "us", p50)
	res.set("ckpt.offer_us_p99", "us", p99)
	p50, _ = res.timing("ckpt.save_ms", us(rs.saves), 1e-3)
	res.set("ckpt.save_ms_p50", "ms", p50)
	res.set("ckpt.coalesce_ratio", "ratio", max(0, 1-ratio(int64(len(rs.saves)), tr.calls[layerCkpt])))

	p50, _ = res.timing("obs.call_ns", us(tr.durs[layerObs]), 1e3)
	res.set("obs.events_per_step", "count", perStep(tr.calls[layerObs]))
	res.set("obs.us_per_step", "us", perStep(tr.busy[layerObs]+tr.busy[layerOnCycle])/1e3)
	res.set("obs.call_ns_p50", "ns", p50)
	p50, _ = res.timing("obs.oncycle_us", us(tr.durs[layerOnCycle]), 1)
	res.set("obs.oncycle_us_p50", "us", p50)

	p50, _ = res.timing("tshist.sample_us", us(rs.hist), 1)
	res.set("tshist.sample_us_p50", "us", p50)
}
