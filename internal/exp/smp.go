package exp

import (
	"fmt"
	"sort"
	"time"

	"alps/internal/metrics"
	"alps/internal/share"
	"alps/internal/sim"
)

// SMPParams configures the multiprocessor extension experiment: the same
// ALPS instance and workload on machines with increasing processor
// counts. The paper's design targets a uniprocessor (§2.1 notes the
// kernel "selects an available process to execute on an available CPU",
// but all evaluation is single-CPU); this experiment quantifies what
// happens beyond that: ALPS controls only *eligibility*, so with M
// processors the kernel runs up to M eligible processes at once, and
// near the end of each cycle fewer eligible processes remain than
// processors — costing utilization and accuracy.
type SMPParams struct {
	CPUs     []int
	Workload Workload
	// Principals, if set, replaces Workload's one process per share
	// with §5 resource principals of several spinning processes each.
	Principals []SMPPrincipal
	Quantum    time.Duration
	Cycles     int
	Warmup     int
	WarmupTime time.Duration
	Trials     int
}

// DefaultSMPParams measures Linear10 at Q=10 ms on 1/2/4-processor
// machines.
func DefaultSMPParams() SMPParams {
	return SMPParams{
		CPUs:       []int{1, 2, 4},
		Workload:   Workload{share.Linear, 10},
		Quantum:    10 * time.Millisecond,
		Cycles:     120,
		Warmup:     5,
		WarmupTime: 75 * time.Second,
		Trials:     3,
	}
}

// SMPPrincipal is one resource principal: a share held by Members
// spinning processes.
type SMPPrincipal struct {
	Share   int64
	Members int
}

// DefaultSMPPrincipalsParams measures the real-process benchmark's
// `principals` shape on 1/2/4-processor machines at Q=10 ms: five
// principals of 8/4/2/1/1 spinners with shares 5/4/3/2/1. A principal
// with several runnable members drains up to one quantum per CPU per
// quantum, so this is the case the §2.3 drain width exists for.
func DefaultSMPPrincipalsParams() SMPParams {
	p := DefaultSMPParams()
	p.Principals = []SMPPrincipal{{5, 8}, {4, 4}, {3, 2}, {2, 1}, {1, 1}}
	return p
}

// SMPPoint is one processor count's measurement.
type SMPPoint struct {
	CPUs int
	// MeanRMSErrorPct is the §3.1 accuracy metric; the per-cycle ideal
	// scales with the machine's capacity actually consumed.
	MeanRMSErrorPct float64
	// MedianRMSErrorPct holds each trial's (phase offset's) median
	// per-cycle RMS error.
	MedianRMSErrorPct []float64
	// UtilizationPct is consumed workload CPU over M×wall capacity.
	UtilizationPct float64
	// OverheadPct is ALPS CPU / wall.
	OverheadPct float64
}

// SMPResult holds the sweep.
type SMPResult struct {
	Params SMPParams
	Points []SMPPoint
}

// SMP runs the multiprocessor extension experiment.
func SMP(p SMPParams) (*SMPResult, error) {
	principals := p.Principals
	if principals == nil {
		shares, err := p.Workload.Shares()
		if err != nil {
			return nil, err
		}
		for _, s := range shares {
			principals = append(principals, SMPPrincipal{Share: s, Members: 1})
		}
	}
	res := &SMPResult{Params: p}
	for _, m := range p.CPUs {
		var errsum, utilsum, ovhsum float64
		var medians []float64
		for trial := 0; trial < p.Trials; trial++ {
			e, med, util, ovh, err := smpRun(p, principals, m, time.Duration(trial)*1700*time.Microsecond)
			if err != nil {
				return nil, fmt.Errorf("M=%d: %w", m, err)
			}
			errsum += e
			medians = append(medians, med)
			utilsum += util
			ovhsum += ovh
		}
		n := float64(p.Trials)
		res.Points = append(res.Points, SMPPoint{
			CPUs:              m,
			MeanRMSErrorPct:   errsum / n,
			MedianRMSErrorPct: medians,
			UtilizationPct:    utilsum / n,
			OverheadPct:       ovhsum / n,
		})
	}
	return res, nil
}

func smpRun(p SMPParams, principals []SMPPrincipal, m int, offset time.Duration) (errPct, medianPct, utilPct, ovhPct float64, err error) {
	spec := RunSpec{
		Quantum:    p.Quantum,
		Cycles:     p.Cycles,
		Warmup:     p.Warmup,
		WarmupTime: p.WarmupTime,
		Offset:     offset,
		Cost:       sim.PaperCosts(),
	}
	members := make([]int, len(principals))
	for i, pr := range principals {
		spec.Shares = append(spec.Shares, pr.Share)
		members[i] = pr.Members
	}
	r, err := run(sim.NewKernelSMP(m), spec, members)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	// Per-cycle accuracy vs the proportional split of what the cycle
	// actually delivered (on SMP the cycle's CPU total varies with idle
	// capacity).
	var rms []float64
	for _, c := range r.Cycles {
		consumed := make([]float64, len(c.Record.Tasks))
		weight := make([]float64, len(c.Record.Tasks))
		for i, t := range c.Record.Tasks {
			consumed[i], weight[i] = float64(t.Consumed), float64(t.Share)
		}
		if v, ok := metrics.ShareError(nil, consumed, weight); ok {
			rms = append(rms, v)
		}
	}
	mean, err := metrics.Mean(rms)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	sort.Float64s(rms)
	return 100 * mean, 100 * rms[len(rms)/2],
		100 * float64(r.WorkloadCPU) / (float64(m) * float64(r.Wall)),
		r.OverheadPct(),
		nil
}
