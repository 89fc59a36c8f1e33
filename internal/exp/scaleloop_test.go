package exp

import (
	"testing"
	"time"
)

// TestQuickLoopScale spot-checks the control-loop scaling sweep on a
// reduced N range: the sweep completes, the indexed loop beats the
// reference loop at the largest size by a wide margin (the mostly-idle
// fleet leaves only ~N/10 tasks in the due set while the reference loop
// still scans all N three times per quantum), and the auditor's
// event-derived loop-work gauges agree in direction with the external
// wall-clock timing.
func TestQuickLoopScale(t *testing.T) {
	p := LoopScaleParams{
		Ns:             []int{20, 100, 400},
		Quantum:        10 * time.Millisecond,
		Warmup:         24,
		Measure:        120,
		ActivePermille: 50,
		SpeedupAtN:     400,
	}
	res, err := LoopScale(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Points {
		t.Logf("N=%-5d ref=%8.0fns idx=%8.0fns speedup=%5.2fx audit=%5.2fx lazy=%.2f",
			pt.N, pt.Reference.MedianNs, pt.Indexed.MedianNs,
			pt.Speedup, pt.AuditSpeedup, pt.Indexed.SamplingReduction)
		if pt.Reference.MedianNs <= 0 || pt.Indexed.MedianNs <= 0 {
			t.Errorf("N=%d: non-positive timing", pt.N)
		}
		if pt.Indexed.AuditMedianNs <= 0 || pt.Reference.AuditMedianNs <= 0 {
			t.Errorf("N=%d: auditor loop-work gauge empty", pt.N)
		}
	}
	// At N=400 the measured ratio is 3.4-4.5x even in this shortened
	// run; 2.5x leaves room for CI noise while still proving the O(due)
	// claim.
	last := res.Points[len(res.Points)-1]
	if last.Speedup < 2.5 {
		t.Errorf("indexed loop only %.2fx faster than reference at N=%d", last.Speedup, last.N)
	}
	if last.AuditSpeedup < 2.5 {
		t.Errorf("auditor gauges show only %.2fx at N=%d", last.AuditSpeedup, last.N)
	}
	if res.ReferenceFit.Slope <= res.IndexedFit.Slope {
		t.Errorf("reference per-task cost (%.1f ns/N) not above indexed (%.1f ns/N)",
			res.ReferenceFit.Slope, res.IndexedFit.Slope)
	}
	if res.SpeedupAtN != last.Speedup || res.AuditSpeedupAtN != last.AuditSpeedup {
		t.Errorf("SpeedupAtN bookkeeping mismatch: %v/%v vs point %v/%v",
			res.SpeedupAtN, res.AuditSpeedupAtN, last.Speedup, last.AuditSpeedup)
	}
}

// TestCompareScaleBaseline pins the scale benchmark's regression gate:
// when it skips, which fleet size it compares, and the 0.8× speedup and
// 1.2× indexed-cost bounds that make a fallen ratio a pass, a note or a
// failure.
func TestCompareScaleBaseline(t *testing.T) {
	// sweep builds a result from (N, speedup, indexed median ns) triples.
	sweep := func(measure int, pts ...[3]float64) *LoopScaleResult {
		r := &LoopScaleResult{Params: LoopScaleParams{Measure: measure, ActivePermille: 50}}
		for _, p := range pts {
			r.Points = append(r.Points, LoopScalePoint{
				N: int(p[0]), Speedup: p[1], Indexed: LoopVariantPoint{MedianNs: p[2]},
			})
		}
		return r
	}
	base := sweep(300, [3]float64{100, 3, 2000}, [3]float64{500, 8, 5000}, [3]float64{1000, 10, 6000})
	cases := []struct {
		name    string
		cur     *LoopScaleResult
		verdict ScaleVerdict
		n       int
	}{
		{"parameters differ", sweep(120, [3]float64{1000, 10, 6000}), ScaleSkip, 0},
		{"no common N", sweep(300, [3]float64{50, 2, 1000}, [3]float64{2000, 12, 7000}), ScaleSkip, 0},
		{"speedup at 0.8x", sweep(300, [3]float64{1000, 8, 9000}), ScalePass, 1000},
		{"ratio fell, indexed at 1.2x", sweep(300, [3]float64{1000, 7.9, 7200}), ScaleNote, 1000},
		{"ratio fell, indexed slower", sweep(300, [3]float64{1000, 7.9, 7201}), ScaleFail, 1000},
		// The failing point at N=100 is not the largest common N, so
		// the passing N=500 point decides.
		{"largest common N", sweep(300, [3]float64{100, 1, 9000}, [3]float64{500, 8, 5000}, [3]float64{2000, 1, 9000}), ScalePass, 500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := CompareScaleBaseline(tc.cur, base)
			if c.Verdict != tc.verdict || c.N != tc.n {
				t.Fatalf("verdict %d at N=%d, want %d at N=%d", c.Verdict, c.N, tc.verdict, tc.n)
			}
			if (c.Verdict == ScaleSkip) != (c.Why != "") {
				t.Errorf("Why = %q with verdict %d", c.Why, c.Verdict)
			}
			if c.Verdict != ScaleSkip && (c.Cur.N != c.N || c.Base.N != c.N) {
				t.Errorf("compared points N=%d/%d, want %d", c.Cur.N, c.Base.N, c.N)
			}
		})
	}
}
