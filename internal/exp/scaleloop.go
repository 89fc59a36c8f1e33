package exp

import (
	"fmt"
	"math"
	"sort"
	"time"

	"alps/internal/core"
	"alps/internal/metrics"
	"alps/internal/osproc"
	"alps/internal/trace"
)

// LoopScale measures the control loop itself, not the workload: how much
// wall time one quantum of ALPS bookkeeping costs as the process count
// grows into the thousands. It drives the real-OS Runner over the
// deterministic in-memory process table (FaultSys) so the sweep needs no
// real children and no root, and times each Step in isolation — the
// virtual-clock Advance that stands in for the workload's execution is
// excluded.
//
// The machine model is the paper's: one CPU timeshared among the
// runnable processes (FaultSys.SharedCPU). The fleet is mostly idle —
// ActivePermille of the processes are busy loops, the rest sleep in 'S'
// — because that is the thousands-of-processes regime: a task that
// consumes nothing drains its allowance by the §2.4 blocked charge in
// O(share) measurements per cycle and then leaves the due set entirely,
// and once it has slept through a whole cycle it goes dormant, out of S,
// and is read once per nominal cycle (S quanta). Either way the
// per-quantum work the loop *has* to do follows the active set, not the
// fleet size. A CPU-bound fleet would instead keep ~N/5 tasks
// inside §2.3's final-allowance window (postponement ⌈allowance/Q⌉ = 1
// at trickle consumption rates), and both loops would be due-bound.
//
// Two loop variants run the identical workload (the equivalence
// property test guarantees identical decision streams), both sampling
// sequentially, so the in-loop phase stamps capture all of their work:
//
//   - reference: the seed loop (DisableIndexing) — O(N) stage-1/stage-3
//     scans, a full reconcile sweep every quantum;
//   - indexed: the O(due) loop — timing-wheel due set, changed-subset
//     stage 3, amortized reconcile.
//
// Each run also carries a trace.Auditor: its §4.2 loop-work gauges,
// reconstructed purely from the stamped phase events, must agree with
// the external wall-clock timing — and the median gauge
// (alps_audit_loop_work_p50_seconds) is what the ≥5× indexed-vs-
// reference claim at N=1000 is checked against. Medians, not means, are
// the headline numbers throughout: a quantum during which the host
// deschedules the benchmark process carries tens of milliseconds of
// foreign wall time, and one such quantum would dominate a mean.
type LoopScaleParams struct {
	// Ns are the fleet sizes on the x-axis.
	Ns []int
	// Quantum is the ALPS quantum.
	Quantum time.Duration
	// Warmup quanta are stepped before timing begins; Measure quanta are
	// timed.
	Warmup, Measure int
	// ActivePermille is how many processes per thousand are busy loops;
	// the rest sleep (default 50 = 5%).
	ActivePermille int
	// SpeedupAtN is the fleet size the indexed-vs-reference speedup is
	// reported at (the ≥5× gate). Must be in Ns.
	SpeedupAtN int
}

// DefaultLoopScaleParams sweeps N = 10..5000.
func DefaultLoopScaleParams() LoopScaleParams {
	return LoopScaleParams{
		Ns:             []int{10, 50, 100, 250, 500, 1000, 2000, 5000},
		Quantum:        10 * time.Millisecond,
		Warmup:         50,
		Measure:        300,
		ActivePermille: 50,
		SpeedupAtN:     1000,
	}
}

// LoopVariantPoint is one variant's timing at one N.
type LoopVariantPoint struct {
	// MedianNs is the headline wall nanoseconds per Step; MeanNs and
	// P99Ns record the full distribution (host-preemption spikes land
	// here).
	MedianNs float64 `json:"median_ns"`
	MeanNs   float64 `json:"mean_ns"`
	P99Ns    float64 `json:"p99_ns"`
	// AuditMedianNs and AuditMeanNs are the auditor's per-quantum
	// loop-work gauges (alps_audit_loop_work_p50_seconds /
	// _avg_seconds), in nanoseconds.
	AuditMedianNs float64 `json:"audit_median_ns"`
	AuditMeanNs   float64 `json:"audit_mean_ns"`
	// SamplingReduction is the auditor's §3.2 ratio for the run (0 when
	// no allocation cycle completed inside the measured window).
	SamplingReduction float64 `json:"sampling_reduction"`
}

// LoopScalePoint is one N's measurements across the variants.
type LoopScalePoint struct {
	N         int              `json:"n"`
	Reference LoopVariantPoint `json:"reference"`
	Indexed   LoopVariantPoint `json:"indexed"`
	// Speedup is reference/indexed median wall time per Step.
	Speedup float64 `json:"speedup"`
	// AuditSpeedup is the same ratio computed from the auditor's median
	// loop-work gauges.
	AuditSpeedup float64 `json:"audit_speedup"`
}

// LoopScaleResult is the sweep plus its §4.2 analysis.
type LoopScaleResult struct {
	Params LoopScaleParams  `json:"params"`
	Points []LoopScalePoint `json:"points"`
	// ReferenceFit and IndexedFit are least-squares lines of median Step
	// time (ns) vs N.
	ReferenceFit metrics.Line `json:"reference_fit"`
	IndexedFit   metrics.Line `json:"indexed_fit"`
	// ReferenceBreakdownN and IndexedBreakdownN solve fit(N) = Q: the
	// fleet size at which the loop's own work fills the whole quantum
	// and control is lost (§4.2). Zero when the fit never reaches Q.
	ReferenceBreakdownN float64 `json:"reference_breakdown_n"`
	IndexedBreakdownN   float64 `json:"indexed_breakdown_n"`
	// SpeedupAtN / AuditSpeedupAtN are the indexed-vs-reference ratios
	// at Params.SpeedupAtN; Indexed5x gates on the auditor's number.
	SpeedupAtN      float64 `json:"speedup_at_n"`
	AuditSpeedupAtN float64 `json:"audit_speedup_at_n"`
	Indexed5x       bool    `json:"indexed_5x_at_n"`
}

// wallClockSys is a FaultSys whose clock is the wall clock: phase events
// are stamped with wall time, so the auditor's loop-work gauges measure
// the same thing the external Step timer does.
type wallClockSys struct{ *osproc.FaultSys }

func (wallClockSys) Now() time.Time { return time.Now() }

// loopScaleRun times one variant at one N.
func loopScaleRun(p LoopScaleParams, n int, disableIndexing bool) (LoopVariantPoint, error) {
	fs := osproc.NewFaultSys()
	fs.Quiet = true
	fs.SharedCPU = true
	tasks := make([]osproc.Task, n)
	period := 1000
	if p.ActivePermille > 0 {
		period = 1000 / p.ActivePermille
	}
	for i := range tasks {
		pid := 1000 + i
		state := byte('S')
		if p.ActivePermille > 0 && i%period == 0 {
			state = 'R'
		}
		fs.AddProc(osproc.FaultProc{PID: pid, Start: uint64(pid), State: state})
		tasks[i] = osproc.Task{ID: core.TaskID(i + 1), Share: int64(i%8) + 1, PIDs: []int{pid}}
	}
	aud := trace.NewAuditor(trace.AuditorConfig{})
	r, err := osproc.NewRunner(osproc.Config{
		Quantum:         p.Quantum,
		Sys:             wallClockSys{fs},
		Observer:        aud,
		OnCycle:         aud.OnCycle,
		DisableIndexing: disableIndexing,
	}, tasks)
	if err != nil {
		return LoopVariantPoint{}, fmt.Errorf("N=%d: %w", n, err)
	}
	defer r.Release()

	for i := 0; i < p.Warmup; i++ {
		fs.Advance(p.Quantum)
		r.Step()
	}
	samples := make([]float64, 0, p.Measure)
	for i := 0; i < p.Measure; i++ {
		fs.Advance(p.Quantum)
		t0 := time.Now()
		r.Step()
		samples = append(samples, float64(time.Since(t0).Nanoseconds()))
	}
	sort.Float64s(samples)
	mean, err := metrics.Mean(samples)
	if err != nil {
		return LoopVariantPoint{}, err
	}
	return LoopVariantPoint{
		MedianNs:          samples[len(samples)/2],
		MeanNs:            mean,
		P99Ns:             samples[len(samples)*99/100],
		AuditMedianNs:     float64(aud.MedianLoopWork().Nanoseconds()),
		AuditMeanNs:       float64(aud.MeanLoopWork().Nanoseconds()),
		SamplingReduction: aud.SamplingReductionRatio(),
	}, nil
}

// LoopScale runs the control-loop scaling sweep.
func LoopScale(p LoopScaleParams) (*LoopScaleResult, error) {
	res := &LoopScaleResult{Params: p}
	for _, n := range p.Ns {
		pt := LoopScalePoint{N: n}
		var err error
		if pt.Reference, err = loopScaleRun(p, n, true); err != nil {
			return nil, err
		}
		if pt.Indexed, err = loopScaleRun(p, n, false); err != nil {
			return nil, err
		}
		if pt.Indexed.MedianNs > 0 {
			pt.Speedup = pt.Reference.MedianNs / pt.Indexed.MedianNs
		}
		if pt.Indexed.AuditMedianNs > 0 {
			pt.AuditSpeedup = pt.Reference.AuditMedianNs / pt.Indexed.AuditMedianNs
		}
		res.Points = append(res.Points, pt)
		if n == p.SpeedupAtN {
			res.SpeedupAtN = pt.Speedup
			res.AuditSpeedupAtN = pt.AuditSpeedup
			res.Indexed5x = pt.AuditSpeedup >= 5
		}
	}
	res.ReferenceFit = loopFit(res.Points, func(pt LoopScalePoint) float64 { return pt.Reference.MedianNs })
	res.IndexedFit = loopFit(res.Points, func(pt LoopScalePoint) float64 { return pt.Indexed.MedianNs })
	res.ReferenceBreakdownN = loopBreakdown(res.ReferenceFit, p.Quantum)
	res.IndexedBreakdownN = loopBreakdown(res.IndexedFit, p.Quantum)
	return res, nil
}

func loopFit(points []LoopScalePoint, val func(LoopScalePoint) float64) metrics.Line {
	xs := make([]float64, len(points))
	ys := make([]float64, len(points))
	for i, pt := range points {
		xs[i], ys[i] = float64(pt.N), val(pt)
	}
	line, err := metrics.LinearRegression(xs, ys)
	if err != nil {
		return metrics.Line{}
	}
	return line
}

// loopBreakdown solves fit(N) = Q for N: past that size one quantum of
// bookkeeping takes longer than the quantum itself.
func loopBreakdown(fit metrics.Line, q time.Duration) float64 {
	if fit.Slope <= 0 {
		return 0
	}
	n := (float64(q.Nanoseconds()) - fit.Intercept) / fit.Slope
	if n <= 0 || math.IsInf(n, 0) || math.IsNaN(n) {
		return 0
	}
	return n
}

// ScaleVerdict is the outcome of CompareScaleBaseline.
type ScaleVerdict int

const (
	// ScaleSkip: the sweeps are not comparable (Why says how).
	ScaleSkip ScaleVerdict = iota
	// ScalePass: the speedup is at least 0.8× the baseline's.
	ScalePass
	// ScaleNote: the speedup fell below 0.8× the baseline's, but the
	// indexed loop is at most 1.2× slower than the baseline's — a
	// reference-side improvement, not a regression.
	ScaleNote
	// ScaleFail: the speedup fell below 0.8× the baseline's and the
	// indexed loop is more than 1.2× slower than the baseline's.
	ScaleFail
)

// ScaleComparison is a sweep held against a baseline sweep at one
// fleet size.
type ScaleComparison struct {
	Verdict ScaleVerdict
	// Why says why the sweeps are not comparable (ScaleSkip only).
	Why string
	// N is the fleet size compared; Cur and Base are the two sweeps'
	// points there.
	N         int
	Cur, Base LoopScalePoint
}

// CompareScaleBaseline is the scale benchmark's regression gate: at the
// largest fleet size both sweeps measured with a positive speedup, the
// indexed-vs-reference speedup must not fall more than 20% below the
// baseline's. A fallen ratio alone is not condemning — an optimization
// shared by both loop variants (e.g. removing allocations from the
// per-PID read path, which the reference loop pays O(N) times per
// quantum) shrinks the ratio while making both loops faster — so the
// gate fails only when the indexed loop's own per-Step cost also got
// more than 20% slower than the baseline's. Sweeps that time a
// different window or fleet mix are not comparable.
func CompareScaleBaseline(cur, base *LoopScaleResult) ScaleComparison {
	if base.Params.Measure != cur.Params.Measure || base.Params.ActivePermille != cur.Params.ActivePermille {
		return ScaleComparison{Why: "baseline parameters differ from this run"}
	}
	basePts := make(map[int]LoopScalePoint, len(base.Points))
	for _, pt := range base.Points {
		basePts[pt.N] = pt
	}
	var c ScaleComparison
	for _, pt := range cur.Points {
		if b, ok := basePts[pt.N]; ok && pt.N > c.N && b.Speedup > 0 && pt.Speedup > 0 {
			c.N, c.Cur, c.Base = pt.N, pt, b
		}
	}
	switch {
	case c.N == 0:
		c.Why = "no comparable fleet size in baseline"
	case c.Cur.Speedup >= 0.8*c.Base.Speedup:
		c.Verdict = ScalePass
	case c.Cur.Indexed.MedianNs > 1.2*c.Base.Indexed.MedianNs:
		c.Verdict = ScaleFail
	default:
		c.Verdict = ScaleNote
	}
	return c
}
