package exp

import (
	"time"

	"alps/internal/sim"
)

// IOParams configures the §3.3 I/O experiment (Figure 6): three processes
// A, B, C with shares 1, 2, 3 under a 10 ms quantum; after a warm-up, B
// alternates 80 ms of execution with a 240 ms sleep simulating I/O.
type IOParams struct {
	Quantum time.Duration
	// Exec and Wait define B's I/O pattern.
	Exec time.Duration
	Wait time.Duration
	// IOStartCycle is the cycle number around which B starts doing I/O
	// (the paper's trace shows it near cycle 590).
	IOStartCycle int
	// TotalCycles is the length of the recorded trace.
	TotalCycles int
	// Idle adds that many share-1 processes that sleep throughout beside
	// A, B and C (the paper has none). They go dormant and must leave
	// the shape unchanged; the trace and summaries cover A, B and C only.
	Idle int
}

// DefaultIOParams returns the paper's Figure 6 configuration.
func DefaultIOParams() IOParams {
	return IOParams{
		Quantum:      10 * time.Millisecond,
		Exec:         80 * time.Millisecond,
		Wait:         240 * time.Millisecond,
		IOStartCycle: 590,
		TotalCycles:  650,
	}
}

// IOCycle is one cycle of the Figure 6 trace: each process's percentage
// of the CPU time consumed during that cycle.
type IOCycle struct {
	Cycle    int
	SharePct [3]float64 // A (1 share), B (2 shares, I/O), C (3 shares)
}

// IOResult is the Figure 6 trace plus summary ratios.
type IOResult struct {
	Params IOParams
	Trace  []IOCycle
	// SteadySharePct is the mean per-process CPU percentage before B
	// starts I/O (expect ≈ 16.7/33.3/50).
	SteadySharePct [3]float64
	// BlockedSharePct is the mean per-process CPU percentage over the
	// cycles where B consumed (almost) nothing (expect ≈ 25/0/75).
	BlockedSharePct [3]float64
	// ActiveSharePct is the mean over post-I/O-start cycles where B
	// was consuming (expect the 1:2:3 ratio to hold, ≈ 16.7/33.3/50).
	ActiveSharePct [3]float64
}

// IORedistribution runs the Figure 6 experiment: when the 2-share process
// blocks, ALPS redistributes the CPU 1:3 between the other two.
func IORedistribution(p IOParams) (*IOResult, error) {
	// Shares 1+2+3 = 6, so one cycle is 6·Q of CPU. The warm-up phase
	// boundary is expressed in virtual time for the behavior.
	cycleLen := 6 * p.Quantum
	ioStart := time.Duration(p.IOStartCycle) * cycleLen

	spec := RunSpec{
		Shares:  []int64{1, 2, 3},
		Quantum: p.Quantum,
		Cycles:  p.TotalCycles,
		Warmup:  0,
		Cost:    paperCost,
		Behaviors: []sim.Behavior{
			nil, // A: compute-bound
			&sim.PeriodicIO{Exec: p.Exec, Wait: p.Wait, StartAt: ioStart},
			nil, // C: compute-bound
		},
		// Blocked phases stretch cycles in real time.
		MaxDuration: time.Duration(p.TotalCycles+100) * 4 * cycleLen,
	}
	for i := 0; i < p.Idle; i++ {
		spec.Shares = append(spec.Shares, 1)
		spec.Behaviors = append(spec.Behaviors, sim.SleepLoop(time.Hour))
	}
	r, err := Run(spec)
	if err != nil {
		return nil, err
	}

	res := &IOResult{Params: p}
	var steadyN, blockedN, activeN int
	for _, c := range r.Cycles {
		abc := c.Record.Tasks[:3]
		var total time.Duration
		for _, t := range abc {
			total += t.Consumed
		}
		if total == 0 {
			continue
		}
		var pct [3]float64
		for i, t := range abc {
			pct[i] = 100 * float64(t.Consumed) / float64(total)
		}
		res.Trace = append(res.Trace, IOCycle{Cycle: c.Record.Index, SharePct: pct})

		switch {
		case c.Record.Index < p.IOStartCycle-5:
			add3(&res.SteadySharePct, pct)
			steadyN++
		case c.Record.Index > p.IOStartCycle+5 && pct[1] < 5:
			// B blocked for (essentially) the whole cycle.
			add3(&res.BlockedSharePct, pct)
			blockedN++
		case c.Record.Index > p.IOStartCycle+5:
			add3(&res.ActiveSharePct, pct)
			activeN++
		}
	}
	div3(&res.SteadySharePct, steadyN)
	div3(&res.BlockedSharePct, blockedN)
	div3(&res.ActiveSharePct, activeN)
	return res, nil
}

func add3(dst *[3]float64, src [3]float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

func div3(dst *[3]float64, n int) {
	if n == 0 {
		return
	}
	for i := range dst {
		dst[i] /= float64(n)
	}
}
