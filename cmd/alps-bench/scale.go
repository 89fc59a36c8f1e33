package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"alps/internal/exp"
)

// runScale sweeps the real-OS control loop's per-quantum cost over fleet
// sizes up to 5000 processes (internal/exp.LoopScale) and writes
// BENCH_scale.json. Beyond the table it enforces two gates:
//
//   - at N=1000 the auditor's median loop-work gauge must show the
//     indexed loop ≥5× faster than the seed (reference) loop — the
//     headline claim of the O(due) rework (full runs only; -quick stops
//     at N=500 where the honest ratio is smaller);
//   - if a committed BENCH_scale_baseline.json exists with comparable
//     parameters, the current speedup must not regress against it
//     (exp.CompareScaleBaseline).
func runScale(w io.Writer) error {
	p := exp.DefaultLoopScaleParams()
	// The quick sizes are a subset of the full sweep so the baseline
	// regression gate can compare at a fleet size both runs measured.
	if *quick {
		p.Ns = []int{10, 100, 500}
		p.SpeedupAtN = 500
	}
	res, err := exp.LoopScale(p)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Per-quantum control-loop cost (medians of %d quanta, %d%% of fleet active, single shared CPU)\n",
		p.Measure, p.ActivePermille/10)
	fmt.Fprintf(w, "  %-6s %12s %12s %9s %9s\n", "N", "reference", "indexed", "speedup", "audit")
	for _, pt := range res.Points {
		fmt.Fprintf(w, "  %-6d %10.1fµs %10.1fµs %8.2fx %8.2fx\n",
			pt.N, pt.Reference.MedianNs/1e3, pt.Indexed.MedianNs/1e3, pt.Speedup, pt.AuditSpeedup)
	}
	fmt.Fprintf(w, "Median-fit: reference %.1f ns/proc (R²=%.3f), indexed %.1f ns/proc (R²=%.3f)\n",
		res.ReferenceFit.Slope, res.ReferenceFit.R2, res.IndexedFit.Slope, res.IndexedFit.R2)
	describeBreakdown := func(name string, n float64) {
		if n > 0 {
			fmt.Fprintf(w, "§4.2 breakdown (loop work fills Q=%v): %s at N≈%.0f\n", p.Quantum, name, n)
		} else {
			fmt.Fprintf(w, "§4.2 breakdown (loop work fills Q=%v): %s never within the sweep\n", p.Quantum, name)
		}
	}
	describeBreakdown("reference", res.ReferenceBreakdownN)
	describeBreakdown("indexed", res.IndexedBreakdownN)
	fmt.Fprintf(w, "Speedup at N=%d: %.2fx wall, %.2fx by auditor loop-work gauge\n",
		p.SpeedupAtN, res.SpeedupAtN, res.AuditSpeedupAtN)

	outDir := *out
	if outDir == "" {
		outDir = "."
	}
	outPath := filepath.Join(outDir, "BENCH_scale.json")
	report := struct {
		Loop *exp.LoopScaleResult `json:"loop"`
	}{res}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", outPath)

	if err := checkScaleBaseline(w, res); err != nil {
		return err
	}
	if !*quick && !res.Indexed5x {
		return fmt.Errorf("auditor gauges show only %.2fx indexed-vs-reference at N=%d, want >=5x",
			res.AuditSpeedupAtN, p.SpeedupAtN)
	}
	return nil
}

// checkScaleBaseline reads the committed BENCH_scale_baseline.json and
// prints exp.CompareScaleBaseline's verdict on the run, failing on a
// regression. It skips, with a note, when no baseline exists.
func checkScaleBaseline(w io.Writer, res *exp.LoopScaleResult) error {
	data, err := os.ReadFile("BENCH_scale_baseline.json")
	if os.IsNotExist(err) {
		fmt.Fprintln(w, "no BENCH_scale_baseline.json; skipping regression gate")
		return nil
	}
	if err != nil {
		return err
	}
	var baseReport struct {
		Loop *exp.LoopScaleResult `json:"loop"`
	}
	if err := json.Unmarshal(data, &baseReport); err != nil {
		return fmt.Errorf("BENCH_scale_baseline.json: %w", err)
	}
	if baseReport.Loop == nil {
		fmt.Fprintln(w, "BENCH_scale_baseline.json has no loop sweep; skipping regression gate")
		return nil
	}
	c := exp.CompareScaleBaseline(res, baseReport.Loop)
	if c.Verdict == exp.ScaleSkip {
		fmt.Fprintf(w, "%s; skipping regression gate\n", c.Why)
		return nil
	}
	fmt.Fprintf(w, "regression gate at N=%d: speedup %.2fx vs baseline %.2fx (indexed %.1fµs vs %.1fµs)\n",
		c.N, c.Cur.Speedup, c.Base.Speedup, c.Cur.Indexed.MedianNs/1e3, c.Base.Indexed.MedianNs/1e3)
	switch c.Verdict {
	case exp.ScaleFail:
		return fmt.Errorf("optimized loop regressed: speedup %.2fx at N=%d is >20%% below baseline %.2fx and the indexed loop itself slowed %.1fµs -> %.1fµs",
			c.Cur.Speedup, c.N, c.Base.Speedup, c.Base.Indexed.MedianNs/1e3, c.Cur.Indexed.MedianNs/1e3)
	case exp.ScaleNote:
		fmt.Fprintln(w, "note: speedup ratio fell but the indexed loop is within 1.2x of the baseline's; reference-side improvement, not a regression")
	}
	return nil
}
