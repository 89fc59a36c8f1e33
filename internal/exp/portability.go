package exp

import (
	"fmt"
	"time"

	"alps/internal/sim"
)

// PortabilityParams configures the kernel-portability experiment: the
// identical ALPS process and workload on machines whose *native*
// scheduling policies differ. The paper's §1 argues that a user-level
// scheduler is valuable precisely because it is portable — "not requiring
// modifications to the underlying kernel scheduler" — and §2.1's design
// defers fine-grained time slicing to whatever that scheduler is. This
// experiment substantiates the claim: ALPS achieves proportional shares
// on both a 4.4BSD decay-usage kernel and a Linux-CFS-style fair
// scheduler, without a line of ALPS changing.
type PortabilityParams struct {
	Workloads  []Workload
	Quantum    time.Duration
	Cycles     int
	Warmup     int
	WarmupTime time.Duration
}

// DefaultPortabilityParams compares the Table 2 five-process workloads at
// Q=10 ms.
func DefaultPortabilityParams() PortabilityParams {
	return PortabilityParams{
		Workloads:  PaperWorkloads(),
		Quantum:    10 * time.Millisecond,
		Cycles:     150,
		Warmup:     5,
		WarmupTime: 75 * time.Second,
	}
}

// PortabilityRow is one workload's accuracy under each kernel policy.
type PortabilityRow struct {
	Workload Workload
	// Mean RMS relative error per cycle, percent.
	BSDErrPct float64
	CFSErrPct float64
	// ALPS overhead percent under each policy.
	BSDOverheadPct float64
	CFSOverheadPct float64
}

// PortabilityResult holds the comparison.
type PortabilityResult struct {
	Params PortabilityParams
	Rows   []PortabilityRow
}

// Portability runs the experiment.
func Portability(p PortabilityParams) (*PortabilityResult, error) {
	res := &PortabilityResult{Params: p}
	for _, w := range p.Workloads {
		shares, err := w.Shares()
		if err != nil {
			return nil, err
		}
		row := PortabilityRow{Workload: w}
		if row.BSDErrPct, row.BSDOverheadPct, err = portabilityRun(p, shares, sim.PolicyBSD); err != nil {
			return nil, fmt.Errorf("%v on BSD: %w", w, err)
		}
		if row.CFSErrPct, row.CFSOverheadPct, err = portabilityRun(p, shares, sim.PolicyCFS); err != nil {
			return nil, fmt.Errorf("%v on CFS: %w", w, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func portabilityRun(p PortabilityParams, shares []int64, pol sim.Policy) (errPct, ovhPct float64, err error) {
	r, err := run(sim.NewKernelWithPolicy(1, pol), RunSpec{
		Shares:     shares,
		Quantum:    p.Quantum,
		Cycles:     p.Cycles,
		Warmup:     p.Warmup,
		WarmupTime: p.WarmupTime,
		Cost:       sim.PaperCosts(),
	}, nil)
	if err != nil {
		return 0, 0, err
	}
	errPct, err = r.MeanRMSErrorPct()
	return errPct, r.OverheadPct(), err
}
