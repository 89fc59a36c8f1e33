package exp

import (
	"testing"
	"time"

	"alps/internal/share"
)

// TestSMPExperiment: utilization declines with processor count while
// delivered-capacity accuracy stays low.
func TestSMPExperiment(t *testing.T) {
	p := DefaultSMPParams()
	p.Cycles, p.Trials = 40, 1
	res, err := SMP(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for i, pt := range res.Points {
		if pt.MeanRMSErrorPct > 10 {
			t.Errorf("M=%d: error %.2f%%", pt.CPUs, pt.MeanRMSErrorPct)
		}
		if i > 0 && pt.UtilizationPct >= res.Points[i-1].UtilizationPct+1 {
			t.Errorf("utilization should not grow with CPUs: %+v", res.Points)
		}
	}
	if res.Points[0].UtilizationPct < 98 {
		t.Errorf("uniprocessor utilization %.1f%%, want ~100%%", res.Points[0].UtilizationPct)
	}
	if res.Points[2].UtilizationPct > 95 {
		t.Errorf("4-CPU utilization %.1f%% suspiciously high; eligibility gaps expected", res.Points[2].UtilizationPct)
	}
}

// TestSMPPrincipals: on 2 CPUs, where the 8-, 4- and 2-member
// principals each drain two quanta of CPU per quantum, their median
// per-cycle error stays under 40% at Q=10 ms. Postponing reads by
// ⌈allowance/Q⌉, as if each drained one CPU, reads 81% here.
func TestSMPPrincipals(t *testing.T) {
	p := DefaultSMPPrincipalsParams()
	p.CPUs, p.Cycles, p.Trials = []int{2}, 40, 1
	res, err := SMP(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Points[0].MedianRMSErrorPct[0]; got > 40 {
		t.Errorf("2 CPUs: median per-cycle error %.1f%%, want at most 40%%", got)
	}
}

// TestPortabilityExperiment: balanced workloads are accurate on both
// kernel policies; overheads stay under 1% everywhere.
func TestPortabilityExperiment(t *testing.T) {
	p := DefaultPortabilityParams()
	p.Workloads = []Workload{{share.Linear, 5}, {share.Equal, 10}}
	p.Cycles = 60
	res, err := Portability(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		t.Logf("%-9s bsd=%5.2f%% cfs=%5.2f%%", r.Workload, r.BSDErrPct, r.CFSErrPct)
		if r.BSDErrPct > 8 || r.CFSErrPct > 8 {
			t.Errorf("%v: errors %.2f/%.2f%% too high for a balanced workload", r.Workload, r.BSDErrPct, r.CFSErrPct)
		}
		if r.BSDOverheadPct > 1 || r.CFSOverheadPct > 1 {
			t.Errorf("%v: overheads %.3f/%.3f%% exceed 1%%", r.Workload, r.BSDOverheadPct, r.CFSOverheadPct)
		}
	}
}

// TestAcctGranExperiment: granularity is harmless on-grid, catastrophic
// off-grid.
func TestAcctGranExperiment(t *testing.T) {
	p := DefaultAcctGranParams()
	p.Cycles = 60
	res, err := AccountingGranularity(p)
	if err != nil {
		t.Fatal(err)
	}
	get := func(g, q time.Duration) float64 {
		for _, pt := range res.Points {
			if pt.Granularity == g && pt.Quantum == q {
				return pt.MeanRMSErrorPct
			}
		}
		t.Fatalf("missing point %v/%v", g, q)
		return 0
	}
	onGridPrecise := get(1, 10*time.Millisecond)
	onGridTick := get(10*time.Millisecond, 10*time.Millisecond)
	offGridTick := get(10*time.Millisecond, 15*time.Millisecond)
	if diff := onGridPrecise - onGridTick; diff > 3 || diff < -3 {
		t.Errorf("on-grid granularity effect too large: %.2f vs %.2f", onGridPrecise, onGridTick)
	}
	if offGridTick < 3*onGridTick {
		t.Errorf("off-grid tick accounting should collapse accuracy: %.2f vs %.2f", offGridTick, onGridTick)
	}
}
