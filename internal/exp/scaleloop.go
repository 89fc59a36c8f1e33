package exp

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"alps/internal/core"
	"alps/internal/metrics"
	"alps/internal/obs"
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
// Three loop variants run the identical workload (the equivalence
// property test guarantees identical decision streams):
//
//   - reference: the seed loop (DisableIndexing) — O(N) stage-1/stage-3
//     scans, a full reconcile sweep every quantum, sequential sampling;
//   - indexed: the O(due) loop — timing-wheel due set, changed-subset
//     stage 3, amortized reconcile — still sequential, so the in-loop
//     phase stamps capture all of its work;
//   - pooled: the indexed loop plus the sampler/signal worker pool
//     (Samplers > 1). On FaultSys every call serializes on one mutex, so
//     this shows the pool's dispatch overhead floor, not its payoff;
//     the payoff needs real /proc reads.
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
	// Samplers is the worker-pool width of the pooled variant.
	Samplers int
	// SpeedupAtN is the fleet size the indexed-vs-reference speedup is
	// reported at (the ≥5× gate). Must be in Ns.
	SpeedupAtN int
	// GroupPrincipals and GroupMembers drive the members-per-principal
	// axis: GroupPrincipals principals, each owning one whole process
	// group of m members, for every m in GroupMembers. The point records
	// signal syscalls per eligibility flip — with group signaling one
	// flip is one kill(-pgid) no matter how many members the principal
	// has — and the per-Step cost, which must track the principal count,
	// not the process count.
	GroupPrincipals int
	GroupMembers    []int
}

// DefaultLoopScaleParams sweeps N = 10..5000.
func DefaultLoopScaleParams() LoopScaleParams {
	return LoopScaleParams{
		Ns:              []int{10, 50, 100, 250, 500, 1000, 2000, 5000},
		Quantum:         10 * time.Millisecond,
		Warmup:          50,
		Measure:         300,
		ActivePermille:  50,
		Samplers:        runtime.GOMAXPROCS(0),
		SpeedupAtN:      1000,
		GroupPrincipals: 50,
		GroupMembers:    []int{1, 10, 50, 100},
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

// LoopAllocPoint records steady-state allocator pressure at one fleet
// size: the per-Step heap-allocation count (runtime Mallocs delta) of
// the indexed loop with observability off, which the zero-allocation
// rework holds at exactly zero. The median is the gated number — the
// runtime's own background work (GC bookkeeping, timer wheel) can land
// a stray allocation inside any single Step, and the median discards
// those without hiding a loop that genuinely allocates every quantum.
type LoopAllocPoint struct {
	N            int     `json:"n"`
	MedianAllocs float64 `json:"median_allocs_per_quantum"`
	MeanAllocs   float64 `json:"mean_allocs_per_quantum"`
}

// LoopGroupPoint is one point on the members-per-principal axis.
type LoopGroupPoint struct {
	Principals int `json:"principals"`
	Members    int `json:"members_per_principal"`
	// N is the total process count (Principals × Members).
	N int `json:"n"`
	// MedianNs is the median wall time per Step. Holding Principals
	// fixed while Members grows, this shows whether quantum cost scales
	// with processes or with principals.
	MedianNs float64 `json:"median_ns"`
	// Flips counts principal eligibility transitions over the measured
	// window; SignalSyscalls counts kill(2)-equivalent calls the runner
	// issued for them. With process-group signaling the ratio is ≤1.
	Flips           int64   `json:"flips"`
	SignalSyscalls  int64   `json:"signal_syscalls"`
	SyscallsPerFlip float64 `json:"syscalls_per_flip"`
}

// LoopScalePoint is one N's measurements across the variants.
type LoopScalePoint struct {
	N         int              `json:"n"`
	Reference LoopVariantPoint `json:"reference"`
	Indexed   LoopVariantPoint `json:"indexed"`
	Pooled    LoopVariantPoint `json:"pooled"`
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
	// Allocs is the steady-state allocs-per-quantum gauge at each N;
	// SteadyStateAllocs is the gated number — the median at the largest
	// fleet size (0 after the zero-allocation rework).
	Allocs            []LoopAllocPoint `json:"allocs"`
	SteadyStateAllocs float64          `json:"steady_state_allocs_per_quantum"`
	// Groups is the members-per-principal axis; SyscallsPerFlipAtScale
	// is the gated ratio at its largest point (≤1 with group signaling).
	Groups                 []LoopGroupPoint `json:"groups"`
	SyscallsPerFlipAtScale float64          `json:"syscalls_per_flip_at_scale"`
}

// wallClockSys is a FaultSys whose clock is the wall clock: phase events
// are stamped with wall time, so the auditor's loop-work gauges measure
// the same thing the external Step timer does.
type wallClockSys struct{ *osproc.FaultSys }

func (wallClockSys) Now() time.Time { return time.Now() }

// loopScaleRun times one variant at one N.
func loopScaleRun(p LoopScaleParams, n, samplers int, disableIndexing bool) (LoopVariantPoint, error) {
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
		Samplers:        samplers,
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

// loopAllocRun measures steady-state heap allocations per Step at one
// N. The run is the gate's configuration, not the timing sweep's: the
// indexed loop, sequential sampling, no observer — the zero-allocation
// contract covers the scheduler and runner hot path, not whatever an
// attached observer does with the events.
func loopAllocRun(p LoopScaleParams, n int) (LoopAllocPoint, error) {
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
	r, err := osproc.NewRunner(osproc.Config{Quantum: p.Quantum, Sys: fs}, tasks)
	if err != nil {
		return LoopAllocPoint{}, fmt.Errorf("alloc N=%d: %w", n, err)
	}
	defer r.Release()

	for i := 0; i < p.Warmup; i++ {
		fs.Advance(p.Quantum)
		r.Step()
	}
	var before, after runtime.MemStats
	samples := make([]float64, 0, p.Measure)
	for i := 0; i < p.Measure; i++ {
		fs.Advance(p.Quantum) // outside the window: Advance is the workload stand-in
		runtime.ReadMemStats(&before)
		r.Step()
		runtime.ReadMemStats(&after)
		samples = append(samples, float64(after.Mallocs-before.Mallocs))
	}
	sort.Float64s(samples)
	mean, err := metrics.Mean(samples)
	if err != nil {
		return LoopAllocPoint{}, err
	}
	return LoopAllocPoint{N: n, MedianAllocs: samples[len(samples)/2], MeanAllocs: mean}, nil
}

// loopGroupRun measures one members-per-principal point: `principals`
// tasks, each owning a whole process group of `members` processes, all
// busy. Eligibility flips are counted from the observer's transition
// events and signal syscalls from FaultSys's counter, both over the
// measured window only.
func loopGroupRun(p LoopScaleParams, principals, members int) (LoopGroupPoint, error) {
	fs := osproc.NewFaultSys()
	fs.Quiet = true
	fs.SharedCPU = true
	tasks := make([]osproc.Task, principals)
	for i := range tasks {
		leader := 1000 + i*members
		pids := make([]int, members)
		for j := 0; j < members; j++ {
			pid := leader + j
			fs.AddProc(osproc.FaultProc{PID: pid, PGID: leader, Start: uint64(pid), State: 'R'})
			pids[j] = pid
		}
		tasks[i] = osproc.Task{ID: core.TaskID(i + 1), Share: int64(i%8) + 1, PIDs: pids, PGID: leader}
	}
	var flips int64
	counter := obs.ObserverFunc(func(e obs.Event) {
		if e.Kind == obs.KindTransition {
			flips++
		}
	})
	r, err := osproc.NewRunner(osproc.Config{Quantum: p.Quantum, Sys: fs, Observer: counter}, tasks)
	if err != nil {
		return LoopGroupPoint{}, fmt.Errorf("group %d×%d: %w", principals, members, err)
	}
	defer r.Release()

	for i := 0; i < p.Warmup; i++ {
		fs.Advance(p.Quantum)
		r.Step()
	}
	flips = 0
	baseCalls := fs.SignalSyscalls()
	samples := make([]float64, 0, p.Measure)
	for i := 0; i < p.Measure; i++ {
		fs.Advance(p.Quantum)
		t0 := time.Now()
		r.Step()
		samples = append(samples, float64(time.Since(t0).Nanoseconds()))
	}
	sort.Float64s(samples)
	pt := LoopGroupPoint{
		Principals:     principals,
		Members:        members,
		N:              principals * members,
		MedianNs:       samples[len(samples)/2],
		Flips:          flips,
		SignalSyscalls: fs.SignalSyscalls() - baseCalls,
	}
	if pt.Flips > 0 {
		pt.SyscallsPerFlip = float64(pt.SignalSyscalls) / float64(pt.Flips)
	}
	return pt, nil
}

// LoopScale runs the control-loop scaling sweep.
func LoopScale(p LoopScaleParams) (*LoopScaleResult, error) {
	res := &LoopScaleResult{Params: p}
	for _, n := range p.Ns {
		pt := LoopScalePoint{N: n}
		var err error
		if pt.Reference, err = loopScaleRun(p, n, 0, true); err != nil {
			return nil, err
		}
		if pt.Indexed, err = loopScaleRun(p, n, 0, false); err != nil {
			return nil, err
		}
		if pt.Pooled, err = loopScaleRun(p, n, p.Samplers, false); err != nil {
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
	for _, n := range p.Ns {
		apt, err := loopAllocRun(p, n)
		if err != nil {
			return nil, err
		}
		res.Allocs = append(res.Allocs, apt)
		res.SteadyStateAllocs = apt.MedianAllocs // Ns is ascending; last wins
	}
	if p.GroupPrincipals > 0 {
		for _, m := range p.GroupMembers {
			gpt, err := loopGroupRun(p, p.GroupPrincipals, m)
			if err != nil {
				return nil, err
			}
			res.Groups = append(res.Groups, gpt)
			res.SyscallsPerFlipAtScale = gpt.SyscallsPerFlip // GroupMembers is ascending; last wins
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
