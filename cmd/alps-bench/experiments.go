package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"alps/internal/exp"
	"alps/internal/osproc"
	"alps/internal/share"
	"alps/internal/websim"
)

// tsvWriter is any experiment result that can export itself.
type tsvWriter interface {
	WriteTSV(io.Writer) error
}

// saveTSV writes a result's data file into the -out directory (no-op when
// -out is unset) and notes the path on w.
func saveTSV(w io.Writer, name string, r tsvWriter) error {
	if *out == "" {
		return nil
	}
	path := filepath.Join(*out, name+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := r.WriteTSV(f); err != nil {
		return err
	}
	fmt.Fprintf(w, "  [data written to %s]\n", path)
	return f.Close()
}

// runTable1 measures the paper's Table 1 operations on this host: a
// 1 ms ticker's event receipt and, through the paths the runner takes,
// one RealSys.ReadStat of another process (the held /proc/<pid>/stat
// descriptor and allocation-free parse the runner samples with) and a
// RealSys SIGSTOP or SIGCONT of that process. The simulator charges the
// paper's FreeBSD/P4 values (9.02 µs, 1.1+17.4n µs, 0.97 µs); this
// shows what the same operations cost here.
func runTable1(w io.Writer) error {
	iters := 2000
	if *quick {
		iters = 200
	}

	// The paper reports the CPU cost of each operation, so measure CPU
	// time (getrusage deltas), not wall latency.
	cpuNow := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}

	// Timer event: CPU consumed per 1 ms ticker receipt.
	tk := time.NewTicker(time.Millisecond)
	start := cpuNow()
	for i := 0; i < iters; i++ {
		<-tk.C
	}
	tk.Stop()
	timer := (cpuNow() - start) / time.Duration(iters)

	// The measured and signalled process: a sleeping child, as most of
	// a controlled fleet is.
	child := exec.Command("sleep", "3600")
	if err := child.Start(); err != nil {
		return err
	}
	defer func() {
		// A child that died early already failed the read or signal
		// that met it; there is nothing left to report here.
		_ = child.Process.Kill()
		_ = child.Wait()
	}()
	pid := child.Process.Pid
	sys := osproc.RealSys{}
	defer sys.Forget(pid)

	// Measure CPU time of a process: the first read opens the
	// descriptor the runner then holds, so it stays out of the timing.
	if _, err := sys.ReadStat(pid); err != nil {
		return err
	}
	start = cpuNow()
	for i := 0; i < iters; i++ {
		if _, err := sys.ReadStat(pid); err != nil {
			return err
		}
	}
	measure := (cpuNow() - start) / time.Duration(iters)

	// Signal a process: SIGSTOP then SIGCONT, so the child ends as it
	// began; the cost is per signal.
	start = cpuNow()
	for i := 0; i < iters; i++ {
		if err := sys.Stop(pid); err != nil {
			return err
		}
		if err := sys.Cont(pid); err != nil {
			return err
		}
	}
	sig := (cpuNow() - start) / time.Duration(2*iters)

	fmt.Fprintln(w, "Table 1: primary ALPS operation times (this host | paper's FreeBSD 4.8 / P4 2.2GHz)")
	fmt.Fprintf(w, "  %-34s %8.2fus | 9.02us\n", "Receive a timer event", us(timer))
	fmt.Fprintf(w, "  %-34s %8.2fus | 1.1 + 17.4n us (per-process term)\n", "Measure CPU time of a process", us(measure))
	fmt.Fprintf(w, "  %-34s %8.2fus | 0.97us\n", "Signal a process", us(sig))
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func runTable2(w io.Writer) error {
	fmt.Fprintln(w, "Table 2: workload share distributions")
	for _, m := range share.Models {
		for _, n := range []int{5, 10, 20} {
			dist, err := share.Distribution(m, n)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %-7s n=%-3d total=%-4d %v\n", m, n, share.Total(dist), compact(dist))
		}
	}
	return nil
}

func compact(d []int64) string {
	if len(d) <= 10 {
		return fmt.Sprint(d)
	}
	return fmt.Sprintf("[%d %d %d ... %d %d %d]", d[0], d[1], d[2], d[len(d)-3], d[len(d)-2], d[len(d)-1])
}

func accuracyParams() exp.AccuracyParams {
	p := exp.DefaultAccuracyParams()
	if *quick {
		p.Cycles, p.Trials = 40, 1
		p.Quanta = []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	}
	return p
}

func runFig4(w io.Writer) error {
	res, err := exp.Accuracy(accuracyParams())
	if err != nil {
		return err
	}
	if err := saveTSV(w, "fig4_accuracy", res); err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 4: mean RMS relative error (%) vs quantum length")
	fmt.Fprintf(w, "  %-10s", "workload")
	for _, q := range res.Params.Quanta {
		fmt.Fprintf(w, " %7s", q)
	}
	fmt.Fprintln(w)
	byWorkload := map[string][]exp.AccuracyPoint{}
	var order []string
	for _, pt := range res.Points {
		k := pt.Workload.String()
		if _, ok := byWorkload[k]; !ok {
			order = append(order, k)
		}
		byWorkload[k] = append(byWorkload[k], pt)
	}
	for _, k := range order {
		fmt.Fprintf(w, "  %-10s", k)
		for _, pt := range byWorkload[k] {
			fmt.Fprintf(w, " %6.2f%%", pt.MeanRMSErrorPct)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "  (paper: <5% for most workloads; skewed highest, rising with quantum length)")
	return nil
}

func overheadParams() exp.OverheadParams {
	p := exp.DefaultOverheadParams()
	if *quick {
		p.Cycles, p.Trials = 40, 1
	}
	return p
}

func printOverhead(w io.Writer, res *exp.OverheadResult, withBaseline bool) {
	fmt.Fprintf(w, "  %-10s", "workload")
	for _, q := range res.Params.Quanta {
		if withBaseline {
			fmt.Fprintf(w, " %18s", fmt.Sprintf("%v opt/unopt(x)", q))
		} else {
			fmt.Fprintf(w, " %8s", q)
		}
	}
	fmt.Fprintln(w)
	byWorkload := map[string][]exp.OverheadPoint{}
	var order []string
	for _, pt := range res.Points {
		k := pt.Workload.String()
		if _, ok := byWorkload[k]; !ok {
			order = append(order, k)
		}
		byWorkload[k] = append(byWorkload[k], pt)
	}
	for _, k := range order {
		fmt.Fprintf(w, "  %-10s", k)
		for _, pt := range byWorkload[k] {
			if withBaseline {
				fmt.Fprintf(w, "  %5.3f/%5.3f (%3.1fx)", pt.OverheadPct, pt.UnoptimizedPct, pt.ReductionFactor())
			} else {
				fmt.Fprintf(w, "  %6.3f%%", pt.OverheadPct)
			}
		}
		fmt.Fprintln(w)
	}
}

func runFig5(w io.Writer) error {
	res, err := exp.Overhead(overheadParams())
	if err != nil {
		return err
	}
	if err := saveTSV(w, "fig5_overhead", res); err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 5: ALPS overhead (% of CPU) by workload and quantum")
	printOverhead(w, res, false)
	fmt.Fprintln(w, "  (paper: typically under 0.3%, equal-share workloads highest)")
	return nil
}

func runAblation(w io.Writer) error {
	res, err := exp.OptimizationAblation(overheadParams())
	if err != nil {
		return err
	}
	if err := saveTSV(w, "ablation_lazy_sampling", res); err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation (§3.2): overhead with/without lazy sampling")
	printOverhead(w, res, true)
	lo, hi := 1e9, 0.0
	for _, pt := range res.Points {
		if f := pt.ReductionFactor(); f > 0 {
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
	}
	fmt.Fprintf(w, "  reduction factor range: %.1fx - %.1fx (paper: 1.8x - 5.9x)\n", lo, hi)
	return nil
}

func runFig6(w io.Writer) error {
	p := exp.DefaultIOParams()
	if *quick {
		p.IOStartCycle, p.TotalCycles = 100, 160
	}
	res, err := exp.IORedistribution(p)
	if err != nil {
		return err
	}
	if err := saveTSV(w, "fig6_io_trace", res); err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 6: CPU share (%) per cycle; B (2 shares) does I/O after cycle", p.IOStartCycle)
	step := len(res.Trace) / 40
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(res.Trace); i += step {
		c := res.Trace[i]
		fmt.Fprintf(w, "  cycle %4d: A=%5.1f%%  B=%5.1f%%  C=%5.1f%%\n", c.Cycle, c.SharePct[0], c.SharePct[1], c.SharePct[2])
	}
	fmt.Fprintf(w, "  steady (pre-I/O) means: %5.1f / %5.1f / %5.1f  (target 16.7/33.3/50.0)\n",
		res.SteadySharePct[0], res.SteadySharePct[1], res.SteadySharePct[2])
	fmt.Fprintf(w, "  B-blocked cycle means:  %5.1f / %5.1f / %5.1f  (target 25/0/75)\n",
		res.BlockedSharePct[0], res.BlockedSharePct[1], res.BlockedSharePct[2])
	return nil
}

func multiAppParams() exp.MultiAppParams {
	return exp.DefaultMultiAppParams()
}

func runFig7(w io.Writer) error {
	res, err := exp.MultiApp(multiAppParams())
	if err != nil {
		return err
	}
	if err := saveTSV(w, "fig7_multiapp_series", res); err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 7: cumulative CPU (ms) vs wall time for 9 processes under 3 ALPSs")
	fmt.Fprintln(w, "  (sampled every ~2s; full series available via internal/exp.MultiApp)")
	fmt.Fprintf(w, "  %8s", "t(ms)")
	for s := int64(1); s <= 9; s++ {
		fmt.Fprintf(w, " %7s", fmt.Sprintf("%dsh", s))
	}
	fmt.Fprintln(w)
	for t := time.Second; t <= res.Params.End; t += 2 * time.Second {
		fmt.Fprintf(w, "  %8d", t.Milliseconds())
		for s := int64(1); s <= 9; s++ {
			v := time.Duration(0)
			for _, pt := range res.Series[s] {
				if pt.Wall > t {
					break
				}
				v = pt.CPU
			}
			fmt.Fprintf(w, " %7d", v.Milliseconds())
		}
		fmt.Fprintln(w)
	}
	return nil
}

func runTable3(w io.Writer) error {
	res, err := exp.MultiApp(multiAppParams())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 3: accuracy of multiple ALPSs (within-group CPU fraction and relative error)")
	fmt.Fprintf(w, "  %2s %6s | %*s\n", "S", "target", 3*16, "phase1            phase2            phase3")
	for i := len(res.Rows) - 1; i >= 0; i-- {
		row := res.Rows[i]
		fmt.Fprintf(w, "  %2d %5.1f%% |", row.Share, row.Target)
		for ph := 0; ph < 3; ph++ {
			c := row.Phase[ph]
			if !c.Present {
				fmt.Fprintf(w, " %16s", "-")
			} else {
				fmt.Fprintf(w, "  %5.1f%% re=%4.1f%%", c.Pct, c.RelErrPct)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  average relative error: %.2f%% (paper: 0.93%%)\n", res.AvgRelErrPct)
	return nil
}

func scaleParams() exp.ScaleParams {
	p := exp.DefaultScaleParams()
	if *quick {
		p.Cycles = 12
		p.Ns = []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120}
	}
	return p
}

var scaleCache *exp.ScaleResult

func scaleResult() (*exp.ScaleResult, error) {
	if scaleCache != nil {
		return scaleCache, nil
	}
	res, err := exp.Scalability(scaleParams())
	if err == nil {
		scaleCache = res
	}
	return res, err
}

func runFig8(w io.Writer) error {
	res, err := scaleResult()
	if err != nil {
		return err
	}
	if err := saveTSV(w, "fig8_fig9_scalability", res); err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 8: overhead (%) vs number of processes (equal shares, 5/proc)")
	printScale(w, res, func(p exp.ScalePoint) float64 { return p.OverheadPct })
	return nil
}

func runFig9(w io.Writer) error {
	res, err := scaleResult()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 9: mean RMS relative error (%) vs number of processes")
	printScale(w, res, func(p exp.ScalePoint) float64 { return p.MeanRMSErrorPct })
	return nil
}

func printScale(w io.Writer, res *exp.ScaleResult, val func(exp.ScalePoint) float64) {
	fmt.Fprintf(w, "  %4s", "N")
	for _, c := range res.Curves {
		fmt.Fprintf(w, " %9s", c.Quantum)
	}
	fmt.Fprintln(w)
	for i := range res.Curves[0].Points {
		fmt.Fprintf(w, "  %4d", res.Curves[0].Points[i].N)
		for _, c := range res.Curves {
			fmt.Fprintf(w, " %8.3f%%", val(c.Points[i]))
		}
		fmt.Fprintln(w)
	}
}

func runThresholds(w io.Writer) error {
	res, err := scaleResult()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Breakdown thresholds (§4.2): U_Q(N) fits and predicted/observed loss of control")
	paperFit := map[time.Duration]string{
		10 * time.Millisecond: "U10(N)=.0639N+.0604, predicted 39, observed 40",
		20 * time.Millisecond: "U20(N)=.0338N+.0340, predicted 54, observed 60",
		40 * time.Millisecond: "U40(N)=.0172N+.0160, predicted 75, observed 90",
	}
	for _, c := range res.Curves {
		fmt.Fprintf(w, "  Q=%-5v U(N)=%.4fN+%.4f (R2=%.3f)  predicted N*=%.0f  observed N*=%d\n",
			c.Quantum, c.Fit.Slope, c.Fit.Intercept, c.Fit.R2, c.PredictedThreshold, c.ObservedThreshold)
		if s, ok := paperFit[c.Quantum]; ok {
			fmt.Fprintf(w, "          paper: %s\n", s)
		}
	}
	return nil
}

func runWeb(w io.Writer) error {
	cfg := websim.DefaultConfig()
	if *quick {
		cfg.Warmup, cfg.Measure = 40*time.Second, 60*time.Second
	}
	kernel, err := websim.Run(cfg)
	if err != nil {
		return err
	}
	cfg.UseALPS = true
	alps, err := websim.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Shared web server (§5): throughput in requests/second")
	fmt.Fprintf(w, "  %-8s %12s %12s %22s\n", "site", "kernel", "ALPS{1,2,3}", "ALPS latency p50/p95")
	for i := range kernel.Sites {
		fmt.Fprintf(w, "  %-8s %9.1f/s %9.1f/s %12v/%v\n", kernel.Sites[i].Name,
			kernel.Sites[i].Throughput, alps.Sites[i].Throughput,
			alps.Sites[i].LatencyP50.Round(10*time.Millisecond), alps.Sites[i].LatencyP95.Round(10*time.Millisecond))
	}
	fmt.Fprintf(w, "  ALPS overhead: %.3f%%   (paper: kernel {29,30,40}, ALPS {18,35,53})\n", alps.AlpsOverheadPct)
	return nil
}

func runAcctGran(w io.Writer) error {
	p := exp.DefaultAcctGranParams()
	if *quick {
		p.Cycles = 40
	}
	res, err := exp.AccountingGranularity(p)
	if err != nil {
		return err
	}
	if err := saveTSV(w, "acctgran_ablation", res); err != nil {
		return err
	}
	fmt.Fprintln(w, "Accounting-granularity ablation: Skewed5 mean RMS error (%)")
	fmt.Fprintf(w, "  %-12s", "granularity")
	for _, q := range p.Quanta {
		fmt.Fprintf(w, " %10s", "Q="+q.String())
	}
	fmt.Fprintln(w)
	for gi, g := range p.Granularities {
		name := g.String()
		if g == 1 {
			name = "precise"
		}
		fmt.Fprintf(w, "  %-12s", name)
		for qi := range p.Quanta {
			fmt.Fprintf(w, " %9.2f%%", res.Points[gi*len(p.Quanta)+qi].MeanRMSErrorPct)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "  (accuracy collapses when the quantum is not a multiple of the accounting")
	fmt.Fprintln(w, "   granularity: stints mis-read by half a tick leave sub-quantum allowance")
	fmt.Fprintln(w, "   residues that cost whole extra quanta — hence the runner's tick-multiple")
	fmt.Fprintln(w, "   quantum requirement and the on-grid Figure 4 sweep)")
	return nil
}

func runSMP(w io.Writer) error {
	p := exp.DefaultSMPParams()
	if *quick {
		p.Cycles, p.Trials = 40, 1
	}
	res, err := exp.SMP(p)
	if err != nil {
		return err
	}
	if err := saveTSV(w, "smp_extension", res); err != nil {
		return err
	}
	fmt.Fprintf(w, "SMP extension: %s at Q=%v on multiprocessors\n", p.Workload, p.Quantum)
	fmt.Fprintf(w, "  %4s %12s %14s %12s\n", "CPUs", "RMS err", "utilization", "overhead")
	for _, pt := range res.Points {
		fmt.Fprintf(w, "  %4d %11.2f%% %13.1f%% %11.3f%%\n", pt.CPUs, pt.MeanRMSErrorPct, pt.UtilizationPct, pt.OverheadPct)
	}
	fmt.Fprintln(w, "  (ALPS controls eligibility, not placement: with more processors the kernel")
	fmt.Fprintln(w, "   runs several eligible processes at once, and near cycle ends fewer eligible")
	fmt.Fprintln(w, "   processes remain than processors — costing utilization and accuracy)")

	pp := exp.DefaultSMPPrincipalsParams()
	if *quick {
		pp.Cycles, pp.Trials = 40, 1
	}
	quanta := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	cells := make([][]string, len(pp.CPUs))
	for _, q := range quanta {
		pp.Quantum = q
		res, err := exp.SMP(pp)
		if err != nil {
			return err
		}
		for i, pt := range res.Points {
			var meds []string
			for _, m := range pt.MedianRMSErrorPct {
				meds = append(meds, fmt.Sprintf("%.1f", m))
			}
			cells[i] = append(cells[i], strings.Join(meds, " / ")+"%")
		}
	}
	fmt.Fprintln(w, "SMP principals: members 8/4/2/1/1 with shares 5/4/3/2/1, median per-cycle RMS error per phase offset")
	fmt.Fprintf(w, "  %4s", "CPUs")
	for _, q := range quanta {
		fmt.Fprintf(w, " %22s", "Q="+q.String())
	}
	fmt.Fprintln(w)
	for i, m := range pp.CPUs {
		fmt.Fprintf(w, "  %4d", m)
		for _, c := range cells[i] {
			fmt.Fprintf(w, " %22s", c)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "  (a principal with k runnable members drains up to k quanta of CPU per quantum;")
	fmt.Fprintln(w, "   §2.3 postpones its next read by ⌈allowance/(k·Q)⌉, k capped at the CPUs)")
	return nil
}

func runPortability(w io.Writer) error {
	p := exp.DefaultPortabilityParams()
	if *quick {
		p.Cycles = 40
	}
	res, err := exp.Portability(p)
	if err != nil {
		return err
	}
	if err := saveTSV(w, "portability", res); err != nil {
		return err
	}
	fmt.Fprintln(w, "Portability extension: identical ALPS on different native kernel policies")
	fmt.Fprintf(w, "  %-10s %14s %14s %12s %12s\n", "workload", "BSD err", "CFS err", "BSD ovh", "CFS ovh")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "  %-10s %13.2f%% %13.2f%% %11.3f%% %11.3f%%\n",
			r.Workload, r.BSDErrPct, r.CFSErrPct, r.BSDOverheadPct, r.CFSOverheadPct)
	}
	fmt.Fprintln(w, "  (portability finding: balanced workloads reach paper-grade accuracy on both")
	fmt.Fprintln(w, "   kernels unchanged; skewed per-cycle error is higher on CFS because its")
	fmt.Fprintln(w, "   sleeper-fairness clamp denies the rarely-running ALPS daemon the priority")
	fmt.Fprintln(w, "   credit decay-usage scheduling gives it, delaying cycle-boundary dispatches")
	fmt.Fprintln(w, "   by ~sleeper-bonus x co-resumed processes; long-run shares still converge)")
	return nil
}

func runServiceLag(w io.Writer) error {
	p := exp.DefaultServiceLagParams()
	if *quick {
		p.Cycles = 60
	}
	res, err := exp.ServiceLag(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Service lag over %d cycles at Q=%v: worst |received - entitled| per workload\n", p.Cycles, p.Quantum)
	fmt.Fprintf(w, "  %-10s %12s %10s %12s\n", "workload", "worst lag", "(quanta)", "mean lag")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "  %-10s %12v %10.2f %12v\n", r.Workload,
			r.WorstLag.Round(100*time.Microsecond), r.WorstLagQuanta, r.MeanLag.Round(100*time.Microsecond))
	}
	fmt.Fprintln(w, "  (bounded lag over hundreds of cycles is the quantitative form of §2.2's")
	fmt.Fprintln(w, "   claim that allocation errors are corrected rather than accumulated;")
	fmt.Fprintln(w, "   in-kernel stride scheduling bounds the same metric by ~1 quantum)")
	return nil
}

func runBaseline(w io.Writer) error {
	p := exp.DefaultBaselineParams()
	if *quick {
		p.Cycles = 40
	}
	res, err := exp.Baseline(p)
	if err != nil {
		return err
	}
	if err := saveTSV(w, "baseline_comparison", res); err != nil {
		return err
	}
	fmt.Fprintln(w, "Baseline comparison: mean RMS relative error (%) at Q =", p.Quantum)
	fmt.Fprintf(w, "  %-10s %8s %8s %8s\n", "workload", "ALPS", "stride", "lottery")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "  %-10s %7.2f%% %7.2f%% %7.2f%%\n", r.Workload, r.AlpsErrPct, r.StrideErrPct, r.LotteryErrPct)
	}
	fmt.Fprintln(w, "  (stride is deterministic in-kernel proportional share: the accuracy upper bound;")
	fmt.Fprintln(w, "   ALPS approaches it at user level; lottery shows probabilistic error for contrast)")
	return nil
}
