package main

import (
	"bytes"
	"flag"
	"log/slog"
	"strings"
	"testing"
	"time"

	"alps"
	"alps/internal/osproc"
)

func TestParsePidShares(t *testing.T) {
	tasks, err := parsePidShares([]string{"100:1", "200:3", "300:5"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 3 {
		t.Fatalf("tasks = %d", len(tasks))
	}
	if tasks[1].PIDs[0] != 200 || tasks[1].Share != 3 || tasks[1].ID != 1 {
		t.Errorf("task[1] = %+v", tasks[1])
	}
}

func TestParsePidSharesErrors(t *testing.T) {
	cases := [][]string{
		{},                 // empty
		{"100"},            // no colon
		{"x:1"},            // bad pid
		{"100:y"},          // bad share
		{"100:1", "::"},    // garbage
		{"0:1"},            // pid must be positive
		{"-5:1"},           // negative pid
		{"100:0"},          // share must be positive
		{"100:-2"},         // negative share
		{"100:1", "100:3"}, // duplicate pid
		{"100:1", "200:0"}, // one bad pair poisons the set
	}
	for _, args := range cases {
		if _, err := parsePidShares(args); err == nil {
			t.Errorf("parsePidShares(%v) should fail", args)
		}
	}
}

func TestCommonOptsValidate(t *testing.T) {
	mk := func(q, maxq time.Duration) commonOpts {
		return commonOpts{q: &q, maxq: &maxq}
	}
	withCoord := func(url string) commonOpts {
		o := mk(20*time.Millisecond, 40*time.Millisecond)
		o.coordURL = &url
		return o
	}
	cases := []struct {
		name string
		opts commonOpts
		ok   bool
	}{
		{"defaults", mk(20*time.Millisecond, 40*time.Millisecond), true},
		{"guard off", mk(20*time.Millisecond, 0), true},
		{"maxq equals q", mk(20*time.Millisecond, 20*time.Millisecond), true},
		{"zero quantum", mk(0, 40*time.Millisecond), false},
		{"negative quantum", mk(-time.Millisecond, 40*time.Millisecond), false},
		{"negative maxq", mk(20*time.Millisecond, -time.Millisecond), false},
		{"maxq below q", mk(20*time.Millisecond, 10*time.Millisecond), false},
		{"one coord URL", withCoord("http://coord:7070"), true},
		{"coord URL list", withCoord("http://c1:7070,http://c2:7070"), false},
		{"coord trailing comma", withCoord("http://coord:7070,"), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.validate()
			if (err == nil) != tc.ok {
				t.Errorf("validate() = %v, want ok=%t", err, tc.ok)
			}
			if err != nil && tc.opts.coordURL != nil && !strings.HasPrefix(err.Error(), "-coord ") {
				t.Errorf("validate() = %v, want an error naming -coord", err)
			}
		})
	}
}

// A -q above the defaulted 40ms -maxq must not be an error — the
// default rescales to 2q so README's `user -q 100ms` works — while an
// explicit -maxq below -q stays rejected as an operator contradiction.
func TestMaxqDefaultScalesWithQuantum(t *testing.T) {
	parse := func(args ...string) commonOpts {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		opts := commonFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return opts
	}

	opts := parse("-q", "100ms")
	if err := opts.validate(); err != nil {
		t.Fatalf("defaulted -maxq with -q 100ms: %v", err)
	}
	cfg := opts.config()
	if !cfg.Overload.Enable || cfg.Overload.MaxQuantum != 200*time.Millisecond {
		t.Errorf("guard = %+v, want enabled with MaxQuantum 200ms", cfg.Overload)
	}

	if err := parse("-q", "100ms", "-maxq", "40ms").validate(); err == nil {
		t.Error("explicit -maxq below -q should still be rejected")
	}

	opts = parse("-q", "100ms", "-maxq", "0")
	if err := opts.validate(); err != nil {
		t.Fatalf("explicit -maxq 0: %v", err)
	}
	if opts.config().Overload.Enable {
		t.Error("-maxq 0 should disable the guard")
	}
}

// The runner's non-fatal diagnostics reach the operator's log: a PID
// that refuses SIGSTOP is dropped after three strikes, and the drop is
// logged through errlog, not only counted in Health.
func TestRunnerDiagnosticsLogged(t *testing.T) {
	var buf bytes.Buffer
	saved := errlog
	errlog = slog.New(slog.NewTextHandler(&buf, nil))
	t.Cleanup(func() { errlog = saved })

	flags := flag.NewFlagSet("test", flag.ContinueOnError)
	opts := commonFlags(flags)
	if err := flags.Parse([]string{"-q", "20ms"}); err != nil {
		t.Fatal(err)
	}
	cfg := opts.config()
	sys := osproc.NewFaultSys()
	sys.AddProc(osproc.FaultProc{PID: 10, Start: 1})
	sys.AddProc(osproc.FaultProc{PID: 20, Start: 2})
	cfg.Sys = sys
	r, err := alps.NewRunner(cfg, []alps.RunnerTask{
		{ID: 1, Share: 3, PIDs: []int{10}},
		{ID: 2, Share: 1, PIDs: []int{20}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	// Every post-startup SIGSTOP to 20 fails EPERM until the runner
	// drops it.
	sys.Inject(20, osproc.CallStop, osproc.FaultEPERM, osproc.FaultEPERM,
		osproc.FaultEPERM, osproc.FaultEPERM, osproc.FaultEPERM)
	for i := 0; i < 60 && r.Health().UnsignalablePIDs == 0; i++ {
		sys.Advance(cfg.Quantum)
		r.Step()
	}
	if r.Health().UnsignalablePIDs != 1 {
		t.Fatalf("pid 20 not dropped: %+v", r.Health())
	}
	if out := buf.String(); !strings.Contains(out, "pid 20") || !strings.Contains(out, "dropping") {
		t.Errorf("drop not logged; errlog holds:\n%s", out)
	}
}

// The audit/timeline flags are validated up front like every other
// operator input: impossible windows, non-positive drift thresholds and
// negative cadences fail fast.
func TestAuditFlagValidation(t *testing.T) {
	parse := func(args ...string) commonOpts {
		t.Helper()
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		opts := commonFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return opts
	}
	cases := []struct {
		name string
		args []string
		ok   bool
	}{
		{"defaults", nil, true},
		{"explicit values", []string{"-audit-window", "64", "-audit-drift", "0.2", "-timeline-every", "500ms"}, true},
		{"one-cycle window", []string{"-audit-window", "1"}, true},
		{"zero window", []string{"-audit-window", "0"}, false},
		{"negative window", []string{"-audit-window", "-8"}, false},
		{"zero drift", []string{"-audit-drift", "0"}, false},
		{"negative drift", []string{"-audit-drift", "-0.1"}, false},
		{"timeline off", []string{"-timeline-every", "0"}, true},
		{"negative timeline cadence", []string{"-timeline-every", "-1s"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := parse(tc.args...).validate(); (err == nil) != tc.ok {
				t.Errorf("validate(%v) = %v, want ok=%t", tc.args, err, tc.ok)
			}
		})
	}
}

// TestCoordFlagValidation: "alps coord" rejects every out-of-range flag
// before the listener opens, naming the flag, instead of rewriting it to
// a default or pushing a quantum every shard rejects. The documented
// zeros (-q 0, -gain 0, -deadband 0) keep their meaning.
func TestCoordFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		flag string // named in the error; "" means accepted
	}{
		{"defaults", nil, ""},
		{"documented zeros", []string{"-q", "0", "-gain", "0", "-deadband", "0"}, ""},
		{"explicit values", []string{"-q", "20ms", "-gain", "1.5", "-deadband", "0.05", "-ttl", "2s",
			"-rebalance", "500ms"}, ""},
		{"quantum below the accounting tick", []string{"-q", "5ms"}, "-q"},
		{"negative quantum", []string{"-q", "-10ms"}, "-q"},
		{"gain below 1", []string{"-gain", "0.5"}, "-gain"},
		{"gain of 1", []string{"-gain", "1"}, "-gain"},
		{"negative deadband", []string{"-deadband", "-0.1"}, "-deadband"},
		{"zero ttl", []string{"-ttl", "0"}, "-ttl"},
		{"negative rebalance", []string{"-rebalance", "-1s"}, "-rebalance"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("coord", flag.ContinueOnError)
			opts := coordFlags(fs)
			if err := fs.Parse(append([]string{"-http", ":0"}, tc.args...)); err != nil {
				t.Fatal(err)
			}
			err := opts.validate()
			switch {
			case tc.flag == "" && err != nil:
				t.Errorf("validate(%v) = %v, want accepted", tc.args, err)
			case tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ")):
				t.Errorf("validate(%v) = %v, want an error naming %s", tc.args, err, tc.flag)
			}
		})
	}
}

// The flag values must actually reach the stack: obsOptions carries them
// into newObsStack, and directly-constructed opts (tests, library use)
// degrade to the auditor defaults instead of dereferencing nil.
func TestObsOptionsFromFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	opts := commonFlags(fs)
	if err := fs.Parse([]string{"-http", ":0", "-audit-window", "7", "-audit-drift", "0.25",
		"-timeline-every", "250ms"}); err != nil {
		t.Fatal(err)
	}
	op := opts.obsOptions()
	want := obsOptions{addr: ":0", auditWindow: 7, auditDrift: 0.25,
		timelineEvery: 250 * time.Millisecond}
	if op != want {
		t.Errorf("obsOptions = %+v, want %+v", op, want)
	}

	var zero commonOpts
	if got := zero.obsOptions(); got != (obsOptions{}) {
		t.Errorf("zero opts obsOptions = %+v, want zero value", got)
	}

	st := newObsStack(op)
	if w, d := st.aud.Thresholds(); w != 7 || d != 0.25 {
		t.Errorf("auditor thresholds = (%d, %v), want (7, 0.25)", w, d)
	}
	if st.hist == nil {
		t.Error("timeline-every 250ms should build a history store")
	}
	if off := newObsStack(obsOptions{}); off.hist != nil {
		t.Error("zero timelineEvery should disable the history store")
	}
}

func TestCycleLoggerNilWhenDisabled(t *testing.T) {
	if cycleLogger(false) != nil {
		t.Error("disabled logger should be nil")
	}
	if cycleLogger(true) == nil {
		t.Error("enabled logger should not be nil")
	}
}
