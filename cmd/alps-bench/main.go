// Command alps-bench regenerates every table and figure of the ALPS
// paper's evaluation on the simulated substrate (plus host-measured
// Table 1 microbenchmarks). Each subcommand prints the same rows or
// series the paper reports; EXPERIMENTS.md records paper-vs-measured.
//
// Usage:
//
//	alps-bench [-quick] <experiment>
//
// Experiments: table1 table2 fig4 fig5 ablation fig6 fig7 table3 fig8
// fig9 thresholds web baseline all
//
// -quick trims cycle counts and sweep resolution for a fast smoke run;
// the default parameters match the paper (200 cycles, 3 trials, full
// sweeps) and take a few minutes in total.
package main

import (
	"flag"
	"fmt"
	"os"
)

var (
	quick = flag.Bool("quick", false, "reduced cycles/trials for a fast run")
	out   = flag.String("out", "", "directory to write plot-ready .tsv data files and the obs and scale JSON reports into (reports default to the current directory)")
)

type experiment struct {
	name string
	desc string
	run  func() error
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

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: alps-bench [-quick] <experiment>\n\nexperiments:\n")
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
	name := flag.Arg(0)
	if name == "all" {
		for _, e := range experiments {
			fmt.Printf("==== %s: %s ====\n", e.name, e.desc)
			if err := e.run(); err != nil {
				fmt.Fprintf(os.Stderr, "alps-bench %s: %v\n", e.name, err)
				os.Exit(1)
			}
			fmt.Println()
		}
		return
	}
	for _, e := range experiments {
		if e.name == name {
			if err := e.run(); err != nil {
				fmt.Fprintf(os.Stderr, "alps-bench %s: %v\n", name, err)
				os.Exit(1)
			}
			return
		}
	}
	flag.Usage()
	os.Exit(2)
}
