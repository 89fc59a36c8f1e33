// Command bench is the ALPS real-process benchmark. It runs the control
// loop cmd/alps runs — osproc.Runner over RealSys with the overload guard,
// the observability stack, per-cycle checkpoints and, for principals, the
// descendants refresh — against real workload processes. An untraced run
// gives the end-to-end metrics; a traced run wraps the Runner's public
// seams with timers and gives the per-layer ones. See README.md.
//
//	bash bench/run.sh                         # every workload, ~6 minutes
//	bash bench/run.sh -quick                  # ~3 s per workload
//	bash bench/run.sh -repeat 5 -seconds 25   # spread of each metric
//	bash bench/run.sh --workload linear10 --seed 3 --seconds 25 --trace 0
//
// With -trace 0 or 1 and a single workload the last line of standard
// output is one JSON object: the end-to-end metrics (0) or the per-layer
// ones (1) named in BENCHMARK.json. The exit status is non-zero when a
// correctness check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

func main() {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed for the workload's share and slot assignment")
	seconds := flag.Float64("seconds", 0, "measured seconds per run (0: the workload's default; split in half between the untraced and traced run with -trace 1)")
	traceMode := flag.Int("trace", -1, "0: untraced run only, end-to-end metrics; 1: untraced reference and traced run, per-layer metrics; -1: untraced run, then a 20 s traced run")
	quick := flag.Bool("quick", false, "smoke mode: ~3 s runs at reduced size")
	repeat := flag.Int("repeat", 0, "run the untraced workloads over N alternating rounds and print each end-to-end metric's median and quartiles")
	spin := flag.String("spin", "", "path of the alps-spin binary (linear10-threads)")
	out := flag.String("out", "", "directory for the Chrome traces (default: a new temporary directory)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, *workload, *seconds, *traceMode, *repeat, options{seed: *seed, quick: *quick, spin: *spin, out: *out})
	stop()
	os.Exit(code)
}

func run(ctx context.Context, name string, seconds float64, traceMode, repeat int, o options) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// Run from the repository root, where BENCHMARK.json names the metrics.
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	ws := workloads
	if name != "all" {
		w, err := findWorkload(name)
		if err != nil {
			return fail(err)
		}
		ws = []*workload{w}
	}
	if traceMode < -1 || traceMode > 1 {
		return fail(fmt.Errorf("-trace must be -1, 0 or 1, got %d", traceMode))
	}
	if o.out == "" {
		if o.out, err = os.MkdirTemp("", "alps-bench-trace-"); err != nil {
			return fail(err)
		}
	}
	if err := setSubreaper(); err != nil {
		return fail(err)
	}
	if repeat > 0 {
		return runRepeat(ctx, ws, seconds, repeat, sp, o)
	}
	ok := true
	for _, w := range ws {
		p := planFor(w, seconds, traceMode, o.quick)
		fmt.Printf("== %s (seed %d): untraced %v, traced %v\n", w.name, o.seed, p.untraced, p.traced)
		res, err := runWorkload(ctx, w, o, p)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.name, err))
		}
		printResult(res)
		ok = ok && len(res.problems) == 0
		if traceMode >= 0 && len(ws) == 1 {
			set := sp.EndToEnd
			if traceMode == 1 {
				set = sp.PerLayer
			}
			line, err := jsonLine(res, set)
			if err != nil {
				return fail(err)
			}
			fmt.Println(line)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// planFor returns the run lengths of one invocation.
func planFor(w *workload, seconds float64, traceMode int, quick bool) plan {
	base, traced := w.seconds, 20*time.Second
	if quick {
		base, traced = 3*time.Second, 2*time.Second
	}
	if seconds > 0 {
		base = time.Duration(seconds * float64(time.Second))
	}
	switch traceMode {
	case 0:
		return plan{untraced: base}
	case 1:
		return plan{untraced: base / 2, traced: base / 2}
	}
	return plan{untraced: base, traced: traced}
}

func printResult(res *result) {
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.metrics[n]
		fmt.Printf("  %-30s %14.6g %s\n", n, m.Value, m.Unit)
	}
	keys := make([]string, 0, len(res.timings))
	for k := range res.timings {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := res.timings[k]
		fmt.Printf("  timing %-23s p50 %.4g  %s %.4g  n=%d\n", k, s.p50, s.tailLabel, s.tail, s.n)
	}
	fmt.Printf("  steps=%d failed=%d\n", res.attempted, res.failed)
	if res.tracePath != "" {
		fmt.Printf("  chrome trace: %s\n", res.tracePath)
	}
	for _, p := range res.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
}

// report is the machine-readable last line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// jsonLine renders res's metrics named in set. A metric the run did not
// produce, or produced with another unit or a non-finite value, is an
// error.
func jsonLine(res *result, set []specMetric) (string, error) {
	rep := report{Correct: len(res.problems) == 0, Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: make(map[string]metric)}
	for _, sm := range set {
		m, ok := res.metrics[sm.Name]
		if !ok || m.Unit != sm.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s: got %+v (present %t), want a finite value in %s", sm.Name, m, ok, sm.Unit)
		}
		rep.Metrics[sm.Name] = m
	}
	b, err := json.Marshal(rep)
	return string(b), err
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (spec, error) {
	var sp spec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return sp, fmt.Errorf("%s: no metrics", path)
	}
	return sp, nil
}

// runRepeat runs each workload's untraced run over rounds alternating
// rounds, then prints every end-to-end metric's median and quartiles and
// flags a spread (interquartile distance over median) beyond its bound.
func runRepeat(ctx context.Context, ws []*workload, seconds float64, rounds int, sp spec, o options) int {
	vals := make(map[string]map[string][]float64)
	for round := 1; round <= rounds; round++ {
		for _, w := range ws {
			res, err := runWorkload(ctx, w, o, planFor(w, seconds, 0, o.quick))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			if len(res.problems) > 0 {
				printResult(res)
				return 1
			}
			if vals[w.name] == nil {
				vals[w.name] = make(map[string][]float64)
			}
			fmt.Printf("round %d %s:", round, w.name)
			for _, m := range sp.EndToEnd {
				v := res.metrics[m.Name].Value
				vals[w.name][m.Name] = append(vals[w.name][m.Name], v)
				fmt.Printf(" %s=%.4g", m.Name, v)
			}
			fmt.Println()
		}
	}
	flagged := 0
	for _, w := range ws {
		fmt.Printf("== %s: %d rounds\n", w.name, rounds)
		for _, m := range sp.EndToEnd {
			v := vals[w.name][m.Name]
			q1, q2, q3 := quartiles(v)
			s := spread(v)
			mark := ""
			if overBound(m.Name, v, m.Bound) {
				mark = "  SPREAD > BOUND"
				flagged++
			}
			fmt.Printf("  %-24s median %12.5g  q1 %12.5g  q3 %12.5g  spread %6.3f  bound %.2f%s\n", m.Name, q2, q1, q3, s, m.Bound, mark)
		}
	}
	fmt.Printf("repeat: %d metric spreads beyond their bounds\n", flagged)
	return 0
}
