package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"alps"
	"alps/internal/coord"
	"alps/internal/osproc"
	"alps/internal/trace"
	"alps/internal/tshist"
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

	// The coordinator keeps no trace bundles: -trace-dir is not a flag.
	fs := flag.NewFlagSet("coord", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	coordFlags(fs)
	err := fs.Parse([]string{"-http", ":0", "-trace-dir", "x"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -trace-dir") {
		t.Errorf("coord -trace-dir x: err = %v, want flag provided but not defined", err)
	}
}

// buildCoord parses args as "alps coord" flags and builds the
// coordinator and the mux it would serve.
func buildCoord(t *testing.T, args ...string) (*coord.Server, http.Handler) {
	t.Helper()
	fs := flag.NewFlagSet("coord", flag.ContinueOnError)
	opts := coordFlags(fs)
	if err := fs.Parse(append([]string{"-http", ":0"}, args...)); err != nil {
		t.Fatal(err)
	}
	srv, mux, err := newCoordinator(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return srv, mux
}

func getPath(h http.Handler, path string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	return rr
}

// TestCoordMount: "alps coord" serves the retained timeline at
// /fleet/timeline; the fleet metrics and health live on the
// coordinator's own /metrics and /healthz, and the correlated-bundle
// route is gone.
func TestCoordMount(t *testing.T) {
	_, mux := buildCoord(t, "-timeline-every", "1s")
	for path, want := range map[string]int{
		"/fleet/timeline":    http.StatusOK,
		"/debug/fleet-trace": http.StatusNotFound,
		"/fleet/metrics":     http.StatusNotFound,
		"/fleet/healthz":     http.StatusNotFound,
	} {
		if code := getPath(mux, path).Code; code != want {
			t.Errorf("GET %s = %d, want %d", path, code, want)
		}
	}
}

// TestCoordTimeline: "alps coord" retains the history of its registry,
// driven by the server's Tick, and serves it at /fleet/timeline as JSON
// and CSV. With -timeline-every 0 the route is not mounted.
func TestCoordTimeline(t *testing.T) {
	srv, mux := buildCoord(t, "-timeline-every", "1s")
	now := time.Now()
	for i := 0; i < 3; i++ {
		if i > 0 {
			if _, err := srv.SetWeights([]coord.TaskShare{{ID: 1, Share: int64(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		srv.Tick(now.Add(time.Duration(i) * time.Second))
	}
	var tl tshist.Timeline
	if err := json.Unmarshal(getPath(mux, "/fleet/timeline").Body.Bytes(), &tl); err != nil {
		t.Fatalf("unmarshal /fleet/timeline: %v", err)
	}
	if tl.Samples != 3 {
		t.Fatalf("timeline samples = %d, want 3", tl.Samples)
	}
	found := false
	for _, sr := range tl.Series {
		if sr.Name == "alps_coord_epoch" {
			found = true
			if len(sr.Points) != 3 || sr.Points[2].Value != 2 {
				t.Fatalf("epoch series = %+v, want 3 points ending at 2", sr.Points)
			}
		}
	}
	if !found {
		t.Fatal("alps_coord_epoch missing from the retained timeline")
	}
	if body := getPath(mux, "/fleet/timeline?format=csv").Body.String(); !strings.HasPrefix(body, "name,labels,unix_nano,value\n") {
		t.Fatalf("CSV timeline missing header: %.40q", body)
	}

	_, off := buildCoord(t, "-timeline-every", "0")
	if code := getPath(off, "/fleet/timeline").Code; code != http.StatusNotFound {
		t.Fatalf("disabled timeline: GET /fleet/timeline = %d, want 404", code)
	}
}

// TestTraceDirDroppedDumps: a flight-recorder dump that finds the
// -trace-dir writer busy is dropped, and the drop is counted on
// /metrics as alps_trace_dumps_dropped_total.
func TestTraceDirDroppedDumps(t *testing.T) {
	st := newObsStack(obsOptions{})
	if err := st.setTraceDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	writing, release := make(chan struct{}), make(chan struct{})
	st.dumper.OnWrite = func(string, trace.Dump, error) {
		writing <- struct{}{}
		<-release
	}
	st.dumper.Dump(trace.Dump{Reason: "manual", Seq: 1})
	<-writing // the writer holds dump 1
	for seq := int64(2); seq <= 7; seq++ {
		st.dumper.Dump(trace.Dump{Reason: "manual", Seq: seq}) // 4 queue, 2 drop
	}
	var buf bytes.Buffer
	if err := st.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "alps_trace_dumps_dropped_total 2\n") {
		t.Errorf("metrics missing alps_trace_dumps_dropped_total 2:\n%s", buf.String())
	}
	go func() {
		for range writing {
		}
	}()
	close(release)
	st.close()
	close(writing)
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
