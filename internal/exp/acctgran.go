package exp

import (
	"fmt"
	"time"

	"alps/internal/sim"
)

// AcctGranParams configures the accounting-granularity ablation: how the
// granularity of the CPU-time interface ALPS reads (getrusage ticks on
// BSD, USER_HZ on Linux /proc) affects accuracy.
//
// The ablation shows an interaction the deployment guides depend on:
// when the ALPS quantum is a multiple of the substrate's accounting
// granularity, measured stints land on grant boundaries and granularity
// barely matters; when it is not (e.g. a 15 ms quantum over 10 ms Linux
// USER_HZ ticks), every measurement mis-reads the stint by up to half a
// tick, the resulting sub-quantum allowance residues cost whole extra
// quanta, and accuracy collapses. This is why internal/osproc requires
// quanta at tick multiples and why the Figure 4 sweep stays on the tick
// grid.
type AcctGranParams struct {
	Granularities []time.Duration
	Quanta        []time.Duration
	Shares        []int64
	Cycles        int
	Warmup        int
	WarmupTime    time.Duration
}

// DefaultAcctGranParams ablates the paper's worst-case workload
// (Skewed5) across precise / 1 ms / 10 ms accounting at an on-grid and an
// off-grid quantum.
func DefaultAcctGranParams() AcctGranParams {
	return AcctGranParams{
		Granularities: []time.Duration{1, time.Millisecond, 10 * time.Millisecond},
		Quanta:        []time.Duration{10 * time.Millisecond, 15 * time.Millisecond},
		Shares:        []int64{1, 1, 1, 1, 21},
		Cycles:        120,
		Warmup:        5,
		WarmupTime:    75 * time.Second,
	}
}

// AcctGranPoint is one (granularity, quantum) accuracy measurement.
type AcctGranPoint struct {
	Granularity     time.Duration
	Quantum         time.Duration
	MeanRMSErrorPct float64
}

// AcctGranResult holds the ablation.
type AcctGranResult struct {
	Params AcctGranParams
	Points []AcctGranPoint
}

// AccountingGranularity runs the ablation.
func AccountingGranularity(p AcctGranParams) (*AcctGranResult, error) {
	res := &AcctGranResult{Params: p}
	for _, g := range p.Granularities {
		for _, q := range p.Quanta {
			e, err := acctGranRun(p, g, q)
			if err != nil {
				return nil, fmt.Errorf("granularity %v quantum %v: %w", g, q, err)
			}
			res.Points = append(res.Points, AcctGranPoint{Granularity: g, Quantum: q, MeanRMSErrorPct: e})
		}
	}
	return res, nil
}

func acctGranRun(p AcctGranParams, gran, quantum time.Duration) (float64, error) {
	k := sim.NewKernel()
	k.SetAccountingGranularity(gran)
	r, err := run(k, RunSpec{
		Shares:     p.Shares,
		Quantum:    quantum,
		Cycles:     p.Cycles,
		Warmup:     p.Warmup,
		WarmupTime: p.WarmupTime,
		Cost:       sim.PaperCosts(),
	}, nil)
	if err != nil {
		return 0, err
	}
	return r.MeanRMSErrorPct()
}
