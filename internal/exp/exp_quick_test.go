package exp

import (
	"testing"
	"time"

	"alps/internal/share"
)

// TestQuickAccuracy spot-checks the Figure 4 machinery on a reduced
// sweep: error stays in the single digits for a linear workload and the
// run completes its requested cycles.
func TestQuickAccuracy(t *testing.T) {
	p := AccuracyParams{
		Workloads:  []Workload{{share.Linear, 5}, {share.Equal, 5}, {share.Skewed, 5}},
		Quanta:     []time.Duration{10 * time.Millisecond, 40 * time.Millisecond},
		Cycles:     40,
		Trials:     1,
		Warmup:     3,
		WarmupTime: 75 * time.Second,
	}
	res, err := Accuracy(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Points {
		t.Logf("%-9s Q=%-5v err=%6.2f%% overhead=%5.3f%%", pt.Workload, pt.Quantum, pt.MeanRMSErrorPct, pt.OverheadPct)
		if pt.MeanRMSErrorPct > 25 {
			t.Errorf("%v @ %v: error %.2f%% implausibly high", pt.Workload, pt.Quantum, pt.MeanRMSErrorPct)
		}
		if pt.OverheadPct > 1 {
			t.Errorf("%v @ %v: overhead %.3f%% exceeds 1%%", pt.Workload, pt.Quantum, pt.OverheadPct)
		}
	}
}

// TestQuickIO spot-checks the Figure 6 shape with a shorter warm-up.
func TestQuickIO(t *testing.T) {
	p := DefaultIOParams()
	p.IOStartCycle = 60
	p.TotalCycles = 140
	res, err := IORedistribution(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("steady:  %5.1f %5.1f %5.1f", res.SteadySharePct[0], res.SteadySharePct[1], res.SteadySharePct[2])
	t.Logf("active:  %5.1f %5.1f %5.1f", res.ActiveSharePct[0], res.ActiveSharePct[1], res.ActiveSharePct[2])
	t.Logf("blocked: %5.1f %5.1f %5.1f", res.BlockedSharePct[0], res.BlockedSharePct[1], res.BlockedSharePct[2])
	within := func(got, want, tol float64) bool { return got >= want-tol && got <= want+tol }
	if !within(res.SteadySharePct[0], 16.7, 4) || !within(res.SteadySharePct[2], 50, 5) {
		t.Errorf("steady state not ~1:2:3: %v", res.SteadySharePct)
	}
	if !within(res.BlockedSharePct[0], 25, 6) || !within(res.BlockedSharePct[2], 75, 6) {
		t.Errorf("blocked phase not ~25:75: %v", res.BlockedSharePct)
	}
}

// TestQuickIOBesideIdle is TestQuickIO with processes that only sleep
// registered beside A, B and C. They go dormant, and must not change how
// closely B is watched: B still rejoins the quantum it wakes, so the
// blocked-phase shape stays 25:75 and the active phase 1:2:3 however many
// idle processes outnumber the tasks in S.
func TestQuickIOBesideIdle(t *testing.T) {
	for _, idle := range []int{2, 20} {
		p := DefaultIOParams()
		p.IOStartCycle = 60
		p.TotalCycles = 140
		p.Idle = idle
		res, err := IORedistribution(p)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%2d idle: active  %5.1f %5.1f %5.1f", idle, res.ActiveSharePct[0], res.ActiveSharePct[1], res.ActiveSharePct[2])
		t.Logf("%2d idle: blocked %5.1f %5.1f %5.1f", idle, res.BlockedSharePct[0], res.BlockedSharePct[1], res.BlockedSharePct[2])
		within := func(got, want, tol float64) bool { return got >= want-tol && got <= want+tol }
		if !within(res.BlockedSharePct[0], 25, 6) || !within(res.BlockedSharePct[2], 75, 6) {
			t.Errorf("%d idle: blocked phase not ~25:75: %v", idle, res.BlockedSharePct)
		}
		if !within(res.ActiveSharePct[0], 16.7, 4) || !within(res.ActiveSharePct[2], 50, 5) {
			t.Errorf("%d idle: active phase not ~1:2:3: %v", idle, res.ActiveSharePct)
		}
	}
}
