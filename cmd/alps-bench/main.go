// Command alps-bench regenerates every table and figure of the ALPS
// paper's evaluation on the simulated substrate (plus host-measured
// Table 1 microbenchmarks). Each subcommand prints the same rows or
// series the paper reports; EXPERIMENTS.md records paper-vs-measured.
//
// Usage:
//
//	alps-bench [-quick] [-out DIR] <experiment>
//
// Experiments: table1 table2 fig4 fig5 ablation fig6 fig7 table3 fig8
// fig9 thresholds web baseline acctgran smp portability servicelag obs
// scale all
//
// -quick trims cycle counts and sweep resolution for a fast smoke run;
// the default parameters match the paper (200 cycles, 3 trials, full
// sweeps) and take a few minutes in total. -out names the directory the
// .tsv data files and the obs and scale reports go to; it is created,
// parents included, before any experiment runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
)

var (
	quick = flag.Bool("quick", false, "reduced cycles/trials for a fast run")
	out   = flag.String("out", "", "directory to write plot-ready .tsv data files and the obs and scale JSON reports into, created if missing (reports default to the current directory)")
)

type experiment struct {
	name string
	desc string
	run  func(io.Writer) error
}

var experiments = []experiment{
	{"table1", "ALPS primary operation times, measured on this host", runTable1},
	{"table2", "workload share distributions", runTable2},
	{"fig4", "accuracy vs quantum length (9 workloads)", runFig4},
	{"fig5", "overhead vs workload at Q=10/20/40ms", runFig5},
	{"ablation", "overhead with vs without lazy sampling (§3.2)", runAblation},
	{"fig6", "I/O redistribution trace (shares 1:2:3, B blocks)", runFig6},
	{"fig7", "cumulative CPU for 3 concurrent ALPSs", runFig7},
	{"table3", "multiple-ALPS accuracy per phase", runTable3},
	{"fig8", "overhead vs N (equal shares, scalability)", runFig8},
	{"fig9", "accuracy vs N (scalability)", runFig9},
	{"thresholds", "predicted vs observed breakdown thresholds", runThresholds},
	{"web", "shared web server: kernel vs ALPS{1,2,3} throughput", runWeb},
	{"baseline", "ALPS vs in-kernel stride/lottery accuracy", runBaseline},
	{"acctgran", "accuracy vs CPU-accounting granularity (substitution ablation)", runAcctGran},
	{"smp", "extension: ALPS on 1/2/4-processor machines", runSMP},
	{"portability", "extension: ALPS on BSD vs CFS kernel policies", runPortability},
	{"servicelag", "extension: worst-case service lag (stride-style error bound)", runServiceLag},
	{"obs", "observability and history-sampler overhead (writes BENCH_obs.json)", runObs},
	{"scale", "control-loop cost vs fleet size, reference vs O(due) loop (writes BENCH_scale.json)", runScale},
}

// errUnknown reports an experiment name that is neither listed nor "all".
var errUnknown = errors.New("unknown experiment")

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: alps-bench [-quick] [-out DIR] <experiment>\n\nexperiments:\n")
		for _, e := range experiments {
			fmt.Fprintf(os.Stderr, "  %-11s %s\n", e.name, e.desc)
		}
		fmt.Fprintf(os.Stderr, "  %-11s run everything\n", "all")
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), os.Stdout); err != nil {
		if errors.Is(err, errUnknown) {
			flag.Usage()
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "alps-bench %v\n", err)
		os.Exit(1)
	}
}

// run runs the named experiment, or every experiment for "all", printing
// to w. It creates -out before the first experiment starts, so a report
// can never be lost to a missing directory at the end of a long run.
func run(name string, w io.Writer) error {
	sel := experiments
	if name != "all" {
		i := slices.IndexFunc(experiments, func(e experiment) bool { return e.name == name })
		if i < 0 {
			return errUnknown
		}
		sel = experiments[i : i+1]
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fmt.Errorf("-out: %w", err)
		}
	}
	for _, e := range sel {
		if name == "all" {
			fmt.Fprintf(w, "==== %s: %s ====\n", e.name, e.desc)
		}
		if err := e.run(w); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		if name == "all" {
			fmt.Fprintln(w)
		}
	}
	return nil
}
