package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"alps"
	"alps/internal/trace"
)

// Duration is a time.Duration that unmarshals from JSON strings like
// "10ms" or "2m".
type Duration time.Duration

// UnmarshalJSON parses either a duration string or nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("duration must be a string like \"10ms\" or nanoseconds")
	}
	*d = Duration(n)
	return nil
}

// TaskSpec describes one workload task.
type TaskSpec struct {
	// Name labels the task in the report.
	Name string `json:"name"`
	// Share is the task's ALPS share.
	Share int64 `json:"share"`
	// Behavior: "spin" (compute-bound, default) or "io" (alternating
	// Exec of CPU with Wait of sleep).
	Behavior string   `json:"behavior"`
	Exec     Duration `json:"exec"`
	Wait     Duration `json:"wait"`
	// Procs > 1 makes the task a resource principal of that many
	// processes (§5 of the paper).
	Procs int `json:"procs"`
}

// Scenario is the alps-sim input schema.
type Scenario struct {
	Comment string `json:"comment"`
	// NCPU is the simulated processor count (default 1).
	NCPU int `json:"ncpu"`
	// Policy is the kernel's native scheduler: "bsd" (default) or
	// "cfs".
	Policy string `json:"policy"`
	// Quantum is the ALPS quantum (default 10ms).
	Quantum Duration `json:"quantum"`
	// Duration is the simulated run length (default 1m).
	Duration Duration   `json:"duration"`
	Tasks    []TaskSpec `json:"tasks"`
}

// ParseScenario decodes and validates a scenario.
func ParseScenario(raw []byte) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return sc, fmt.Errorf("parsing scenario: %w", err)
	}
	if sc.NCPU < 0 {
		return sc, fmt.Errorf("ncpu %d is negative", sc.NCPU)
	}
	if sc.NCPU == 0 {
		sc.NCPU = 1
	}
	switch sc.Policy {
	case "":
		sc.Policy = "bsd"
	case "bsd", "cfs":
	default:
		return sc, fmt.Errorf("unknown policy %q (want \"bsd\" or \"cfs\")", sc.Policy)
	}
	if sc.Quantum < 0 {
		return sc, fmt.Errorf("quantum %v is negative", time.Duration(sc.Quantum))
	}
	if sc.Quantum == 0 {
		sc.Quantum = Duration(10 * time.Millisecond)
	}
	if sc.Duration < 0 {
		return sc, fmt.Errorf("duration %v is negative", time.Duration(sc.Duration))
	}
	if sc.Duration == 0 {
		sc.Duration = Duration(time.Minute)
	}
	if len(sc.Tasks) == 0 {
		return sc, fmt.Errorf("scenario has no tasks")
	}
	seen := map[string]bool{}
	for i := range sc.Tasks {
		t := &sc.Tasks[i]
		if t.Name == "" {
			return sc, fmt.Errorf("task %d has no name", i)
		}
		if seen[t.Name] {
			return sc, fmt.Errorf("duplicate task name %q", t.Name)
		}
		seen[t.Name] = true
		if t.Share <= 0 {
			return sc, fmt.Errorf("task %q: share must be positive", t.Name)
		}
		if t.Procs == 0 {
			t.Procs = 1
		}
		if t.Procs < 0 {
			return sc, fmt.Errorf("task %q: negative procs", t.Name)
		}
		switch t.Behavior {
		case "", "spin":
			t.Behavior = "spin"
		case "io":
			if t.Exec <= 0 || t.Wait <= 0 {
				return sc, fmt.Errorf("task %q: io behavior needs positive exec and wait", t.Name)
			}
		default:
			return sc, fmt.Errorf("task %q: unknown behavior %q", t.Name, t.Behavior)
		}
	}
	return sc, nil
}

// TaskResult is one task's outcome.
type TaskResult struct {
	Name  string
	Share int64
	CPU   time.Duration
	// PctOfWorkload is the task's percentage of all workload CPU.
	PctOfWorkload float64
	// Rate is CPU consumed over wall time (can exceed 1 on SMP
	// principals).
	Rate float64
}

// Result is a scenario run's outcome.
type Result struct {
	Scenario        Scenario
	Tasks           []TaskResult
	Wall            time.Duration
	AlpsOverheadPct float64
	Cycles          int
}

// Report renders the result as a table.
func (r Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "simulated %v on %d %s cpu(s), quantum %v, %d cycles completed\n",
		r.Wall, r.Scenario.NCPU, r.Scenario.Policy, time.Duration(r.Scenario.Quantum), r.Cycles)
	fmt.Fprintf(&b, "%-12s %6s %12s %9s %7s\n", "task", "share", "cpu", "workload%", "rate")
	for _, t := range r.Tasks {
		fmt.Fprintf(&b, "%-12s %6d %12v %8.1f%% %6.1f%%\n",
			t.Name, t.Share, t.CPU.Round(time.Millisecond), t.PctOfWorkload, 100*t.Rate)
	}
	fmt.Fprintf(&b, "ALPS overhead: %.3f%% of one CPU\n", r.AlpsOverheadPct)
	return b.String()
}

// RunScenario executes a scenario. tracePath, if non-empty, receives a
// context-switch timeline TSV; chromePath receives the run's scheduling
// decisions as Chrome trace-event JSON (openable in Perfetto), validated
// before it is written.
func RunScenario(sc Scenario, logCycles bool, tracePath, chromePath string) (*Result, error) {
	pol := alps.PolicyBSD
	if sc.Policy == "cfs" {
		pol = alps.PolicyCFS
	}
	k := alps.NewKernelWithPolicy(sc.NCPU, pol)
	var tr *alps.Tracer
	if tracePath != "" {
		tr = k.Trace()
	}
	var events *alps.EventLog
	if chromePath != "" {
		events = alps.NewEventLog()
	}

	taskPids := make([][]alps.SimPID, len(sc.Tasks))
	simTasks := make([]alps.SimTask, len(sc.Tasks))
	for i, t := range sc.Tasks {
		for p := 0; p < t.Procs; p++ {
			var b alps.Behavior
			switch t.Behavior {
			case "io":
				b = &alps.PeriodicIO{Exec: time.Duration(t.Exec), Wait: time.Duration(t.Wait), Jitter: 0.2, Seed: int64(i*100 + p)}
			default:
				b = alps.Spin()
			}
			taskPids[i] = append(taskPids[i], k.SpawnStopped(fmt.Sprintf("%s-%d", t.Name, p), 0, b))
		}
		simTasks[i] = alps.SimTask{ID: alps.TaskID(i), Share: t.Share, Pids: taskPids[i]}
	}

	cycles := 0
	cfg := alps.SimConfig{
		Quantum: time.Duration(sc.Quantum),
		Cost:    alps.PaperCosts(),
		OnCycle: func(rec alps.CycleRecord) {
			cycles++
			if logCycles {
				var total time.Duration
				for _, ct := range rec.Tasks {
					total += ct.Consumed
				}
				fmt.Printf("cycle %4d @%8v:", rec.Index, k.Now().Round(time.Millisecond))
				for _, ct := range rec.Tasks {
					pct := 0.0
					if total > 0 {
						pct = 100 * float64(ct.Consumed) / float64(total)
					}
					fmt.Printf(" %s=%.1f%%", sc.Tasks[ct.ID].Name, pct)
				}
				fmt.Println()
			}
		},
	}
	if events != nil {
		cfg.Observer = events
	}
	a, err := alps.StartALPS(k, cfg, simTasks)
	if err != nil {
		return nil, err
	}
	k.Run(time.Duration(sc.Duration))
	if tr != nil {
		k.EndTrace()
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, err
		}
		if err := tr.WriteTSV(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	if events != nil {
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, events.Events(), map[string]any{
			"substrate": "sim", "scenario": sc.Comment,
		}); err != nil {
			return nil, err
		}
		// Refuse to emit a trace Perfetto would choke on: the file is the
		// artifact a human debugs with, so it must always open.
		if err := trace.Validate(buf.Bytes()); err != nil {
			return nil, fmt.Errorf("chrome trace failed validation: %w", err)
		}
		if err := os.WriteFile(chromePath, buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
	}

	res := &Result{Scenario: sc, Wall: k.Now(), Cycles: cycles}
	var total time.Duration
	cpus := make([]time.Duration, len(sc.Tasks))
	for i := range sc.Tasks {
		for _, pid := range taskPids[i] {
			if info, ok := k.Info(pid); ok {
				cpus[i] += info.CPU
			}
		}
		total += cpus[i]
	}
	for i, t := range sc.Tasks {
		tr := TaskResult{
			Name:  t.Name,
			Share: t.Share,
			CPU:   cpus[i],
			Rate:  float64(cpus[i]) / float64(res.Wall),
		}
		if total > 0 {
			tr.PctOfWorkload = 100 * float64(cpus[i]) / float64(total)
		}
		res.Tasks = append(res.Tasks, tr)
	}
	res.AlpsOverheadPct = 100 * float64(a.CPU()) / float64(res.Wall)
	return res, nil
}
