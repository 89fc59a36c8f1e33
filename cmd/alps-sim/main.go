// Command alps-sim runs ALPS over a user-described workload on the
// deterministic simulated machine — a scheduling sandbox for exploring
// share policies without touching real processes.
//
// Usage:
//
//	alps-sim -f scenario.json [-log] [-trace timeline.tsv] [-chrome trace.json]
//	alps-sim -example          # print a commented example scenario
//
// A scenario describes the machine, the ALPS configuration, and the
// workload tasks; see Scenario for the schema. A task's integer share is
// the only policy input, as in the paper's §2. A share tree is written as
// its flattening: each leaf gets the product of the share ratios along
// its path. A CPU-rate floor r on a machine the workload saturates is
// share r·S, where S is the sum of all shares. Output is each task's CPU
// consumption, its percentage of the workload total, and ALPS's own
// overhead.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	file := flag.String("f", "", "scenario JSON file (default: built-in demo)")
	logCycles := flag.Bool("log", false, "print per-cycle consumption")
	tracePath := flag.String("trace", "", "write a context-switch timeline TSV to this file")
	chromePath := flag.String("chrome", "", "write the run's scheduling decisions as Chrome trace JSON (open in Perfetto) to this file")
	example := flag.Bool("example", false, "print an example scenario and exit")
	flag.Parse()

	if *example {
		fmt.Print(exampleScenario)
		return
	}

	var (
		sc  Scenario
		err error
	)
	if *file == "" {
		sc, err = ParseScenario([]byte(exampleScenario))
	} else {
		var raw []byte
		raw, err = os.ReadFile(*file)
		if err == nil {
			sc, err = ParseScenario(raw)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "alps-sim:", err)
		os.Exit(1)
	}

	res, err := RunScenario(sc, *logCycles, *tracePath, *chromePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "alps-sim:", err)
		os.Exit(1)
	}
	fmt.Print(res.Report())
}

const exampleScenario = `{
  "comment": "three compute-bound tasks 1:2:3 plus an I/O task; 2 minutes simulated",
  "ncpu": 1,
  "quantum": "10ms",
  "duration": "2m",
  "tasks": [
    {"name": "small",  "share": 1, "behavior": "spin"},
    {"name": "medium", "share": 2, "behavior": "spin"},
    {"name": "large",  "share": 3, "behavior": "spin"},
    {"name": "iojob",  "share": 2, "behavior": "io", "exec": "80ms", "wait": "240ms"},
    {"name": "pool",   "share": 4, "behavior": "spin", "procs": 3}
  ]
}
`
