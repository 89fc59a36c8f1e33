// Command alps runs the ALPS application-level proportional-share
// scheduler over real processes (Linux). It is an unprivileged tool: it
// only needs permission to signal the target processes.
//
// Attach to existing processes (pid:share pairs):
//
//	alps attach -q 20ms 4321:1 4322:2 4323:3
//
// Spawn N copies of a command under proportional shares (-children makes
// each command's whole process tree one resource principal, for prefork
// servers):
//
//	alps spawn -q 20ms -shares 1,2,3 -- ./alps-spin
//
// Schedule whole users as resource principals (§5 of the paper), with
// membership refreshed every second:
//
//	alps user -q 100ms alice:1 bob:2 carol:3
//
// All modes run until interrupted; on exit every suspended process is
// resumed. Add -log to print per-cycle consumption.
//
// -state FILE checkpoints the scheduler after every cycle and, on
// restart, resumes from the checkpoint: still-live PIDs are re-adopted
// mid-cycle (anything a crashed instance left SIGSTOPped is freed) and
// shares continue where they left off. -config FILE names a JSON
// reconfiguration document applied at startup and re-applied on SIGHUP;
// the same document format is served and accepted at /admin/config when
// -http is on. -maxq bounds the overload guard's quantum stretching
// (0 disables the guard).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/exec"
	"os/signal"
	"os/user"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"alps"
	"alps/internal/coord"
	"alps/internal/core"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "attach":
		err = cmdAttach(os.Args[2:])
	case "spawn":
		err = cmdSpawn(os.Args[2:])
	case "user":
		err = cmdUser(os.Args[2:])
	case "coord":
		err = cmdCoord(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "alps:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  alps attach [common flags] pid:share ...
  alps spawn  [common flags] [-children] -shares 1,2,3 -- command [args...]
  alps user   [common flags] [-refresh 1s] name:share ...
  alps coord  -http :7070 [-ttl 5s] [-rebalance 2s] [-state FILE]
              [-timeline-every 1s] [id:weight ...]

common flags:
  -q 20ms       ALPS quantum
  -log          print per-cycle consumption
  -http addr    serve /metrics, /healthz, /debug/journal, /debug/trace,
                /debug/timeline, /debug/pprof/ and /admin/config on this
                address (e.g. :9090)
  -state FILE   checkpoint scheduler state each cycle; resume from it on
                restart (not with spawn: its children die with alps)
  -config FILE  JSON reconfiguration document, applied at startup and on
                SIGHUP (see README: quantum, tasks[].{id,share,pids,remove})
  -maxq 40ms    overload guard: stretch the quantum up to this bound under
                sustained overload; 0 disables the guard. The default
                scales up to 2x the quantum when -q exceeds it
  -trace-dir D  write flight-recorder dumps (Chrome trace JSON, loadable
                in Perfetto) to directory D; dumps fire automatically on
                lateness spikes, share-error drift, overload degradation,
                process drops and checkpoint failures
  -coord URL    attach this instance to a fleet coordinator as a shard:
                register under a lease, heartbeat consumption, and apply
                the coordinator's share assignments; on coordinator loss
                the shard keeps its last-committed shares until the
                coordinator is back
  -shard NAME   fleet-unique shard name for -coord (default hostname-pid)
  -capacity W   relative capacity weight sent with lease registration;
                the rebalancer steers bigger hosts harder (0: 1.0)

audit and timeline flags:
  -audit-window N   accuracy auditor sliding window, in allocation cycles
                    (default 32); retunable live via /admin/config
                    (audit_window) without restarting
  -audit-drift F    windowed RMS share error above which the drift trigger
                    fires the flight recorder (default 0.10); retunable
                    live via /admin/config (audit_drift)
  -timeline-every D retained-history sampling cadence: every D, one point
                    per metric series is kept in a bounded ring served at
                    /debug/timeline as JSON (?format=csv for CSV); 0
                    disables (default 1s). On "alps coord" the same flag
                    drives /fleet/timeline, the coordinator's history

Run one "alps coord" under a supervisor with -state FILE: a restarted
coordinator resumes at the epoch, weights and assignments it last
committed, and the shards re-register on their next heartbeat. POST
/coord/v1/weights reconfigures the global weight table live.

The coordinator's status document is /healthz, the same document as
/coord/v1/status: epoch, global RMS share error (last round, windowed,
EWMA), convergence, epoch propagation, leased shards with lease age and
stale flag, and detached shards; a shard's row shows its trace_dumps, so
a fired flight recorder points at that shard's -trace-dir and
/debug/trace. /metrics carries the alps_coord_* and alps_fleet_*
families, and /fleet/timeline their retained history.

SIGUSR1 dumps the cycle journal to stderr. SIGUSR2 dumps a flight-recorder
trace. SIGHUP reloads -config; without -config it stops alps as SIGTERM
does, and so does a closed stdout or stderr (alps -log | head): the
workload is resumed either way.
`)
}

// commonOpts are the flags every mode shares. validate() enforces the
// operator-input contract up front so a typo fails fast with a clear
// message instead of surfacing as a scheduling anomaly later.
type commonOpts struct {
	q         *time.Duration
	logCycles *bool
	httpAddr  *string
	state     *string
	conf      *string
	maxq      *time.Duration
	traceDir  *string
	samplers  *int
	coordURL  *string
	shard     *string
	capacity  *float64

	// Observability tuning: the accuracy auditor's window and drift
	// threshold, and the retained-history sampling cadence.
	auditWindow   *int
	auditDrift    *float64
	timelineEvery *time.Duration

	fs *flag.FlagSet // the parsed set, for maxqSet
}

func commonFlags(fs *flag.FlagSet) commonOpts {
	return commonOpts{
		q:         fs.Duration("q", 20*time.Millisecond, "ALPS quantum"),
		logCycles: fs.Bool("log", false, "print per-cycle consumption"),
		httpAddr:  fs.String("http", "", "serve /metrics, /healthz, /debug/journal, /debug/trace, /debug/timeline, /debug/pprof/ and /admin/config on this address (e.g. :9090)"),
		state:     fs.String("state", "", "checkpoint file: written each cycle, resumed from on restart"),
		conf:      fs.String("config", "", "JSON reconfiguration document, applied at startup and on SIGHUP"),
		maxq:      fs.Duration("maxq", 40*time.Millisecond, "overload guard quantum bound (0 disables the guard; default scales to 2q when -q exceeds it)"),
		traceDir:  fs.String("trace-dir", "", "write flight-recorder dumps (Chrome trace JSON, loadable in Perfetto) to this directory"),
		samplers:  fs.Int("samplers", runtime.GOMAXPROCS(0), "worker pool size for concurrent /proc sampling and signal delivery (1 = sequential)"),
		coordURL:  fs.String("coord", "", "fleet coordinator base URL; attach this instance as a shard"),
		shard:     fs.String("shard", "", "fleet-unique shard name for -coord (default hostname-pid)"),
		capacity:  fs.Float64("capacity", 0, "relative capacity weight sent with -coord lease registration; the rebalancer steers bigger hosts harder (0: 1.0)"),

		auditWindow:   fs.Int("audit-window", 32, "accuracy auditor sliding-window length, in allocation cycles; also settable live via /admin/config"),
		auditDrift:    fs.Float64("audit-drift", 0.10, "windowed RMS share error above which the drift trigger fires the flight recorder"),
		timelineEvery: fs.Duration("timeline-every", time.Second, "retained-history sampling cadence for /debug/timeline (0 disables the timeline)"),

		fs: fs,
	}
}

// maxqSet reports whether the operator passed -maxq explicitly. The
// 40ms default is a Figure 4 number for 10–20ms quanta; with a larger
// -q it is not an operator decision to honour but a stale default to
// rescale, so only an explicit value is held against -q in validate().
func (o commonOpts) maxqSet() bool {
	set := false
	o.fs.Visit(func(f *flag.Flag) {
		if f.Name == "maxq" {
			set = true
		}
	})
	return set
}

func (o commonOpts) validate() error {
	if *o.q <= 0 {
		return fmt.Errorf("quantum must be positive, got -q %v", *o.q)
	}
	if *o.maxq < 0 {
		return fmt.Errorf("-maxq must be zero (guard off) or positive, got %v", *o.maxq)
	}
	if *o.maxq > 0 && *o.maxq < *o.q && o.maxqSet() {
		return fmt.Errorf("-maxq %v is below the quantum -q %v; the guard could never stretch", *o.maxq, *o.q)
	}
	if *o.samplers < 1 {
		return fmt.Errorf("-samplers must be at least 1, got %d", *o.samplers)
	}
	if strings.Contains(*o.coordURL, ",") {
		return fmt.Errorf("-coord takes one coordinator URL, got the list %q", *o.coordURL)
	}
	if *o.shard != "" && *o.coordURL == "" {
		return fmt.Errorf("-shard %q given without -coord; a shard name only means something to a coordinator", *o.shard)
	}
	if *o.capacity < 0 {
		return fmt.Errorf("-capacity must be non-negative, got %v", *o.capacity)
	}
	if *o.capacity != 0 && *o.coordURL == "" {
		return fmt.Errorf("-capacity %v given without -coord; capacity only means something to a coordinator", *o.capacity)
	}
	if *o.auditWindow < 1 {
		return fmt.Errorf("-audit-window must be at least 1 cycle, got %d", *o.auditWindow)
	}
	if *o.auditDrift <= 0 {
		return fmt.Errorf("-audit-drift must be positive, got %v", *o.auditDrift)
	}
	if *o.timelineEvery < 0 {
		return fmt.Errorf("-timeline-every must be zero (timeline off) or positive, got %v", *o.timelineEvery)
	}
	return nil
}

// obsOptions collects the observability tuning for newObsStack.
func (o commonOpts) obsOptions() obsOptions {
	return obsOptions{
		addr:          *o.httpAddr,
		auditWindow:   *o.auditWindow,
		auditDrift:    *o.auditDrift,
		timelineEvery: *o.timelineEvery,
	}
}

// config builds the RunnerConfig these flags describe.
func (o commonOpts) config() alps.RunnerConfig {
	maxq := *o.maxq
	if maxq > 0 && maxq < *o.q {
		maxq = 2 * *o.q // defaulted bound below a large -q: keep one stretch level
	}
	return alps.RunnerConfig{
		Quantum:  *o.q,
		Samplers: *o.samplers,
		Overload: alps.OverloadConfig{
			Enable:     maxq > 0,
			MaxQuantum: maxq,
		},
		// Dropped and recycled PIDs, group-signal fallbacks, failed
		// baselines and overload-guard level changes reach the log.
		OnError: func(err error) { errlog.Warn("runner", "err", err) },
	}
}

// thenOnCycle appends f to cfg's OnCycle chain.
func thenOnCycle(cfg *alps.RunnerConfig, f func(core.CycleRecord)) {
	inner := cfg.OnCycle
	cfg.OnCycle = func(rec core.CycleRecord) {
		if inner != nil {
			inner(rec)
		}
		f(rec)
	}
}

// runUntilSignal runs tasks under cfg with the observability,
// checkpoint, reconfiguration and fleet settings of opts until a signal
// or a closed output stops it.
func runUntilSignal(cfg alps.RunnerConfig, tasks []alps.RunnerTask, opts commonOpts) (err error) {
	st := newObsStack(opts.obsOptions())
	st.wire(&cfg, cycleLogger(*opts.logCycles))
	if terr := st.setTraceDir(*opts.traceDir); terr != nil {
		return terr
	}
	defer st.close()
	// Test hook: panic after N completed cycles, so the end-to-end crash
	// test can prove that no workload process stays SIGSTOPped when the
	// controller dies mid-flight (see crash_test.go).
	if n := os.Getenv("ALPS_PANIC_AFTER_CYCLES"); n != "" {
		after, perr := strconv.Atoi(n)
		if perr != nil || after <= 0 {
			return fmt.Errorf("bad ALPS_PANIC_AFTER_CYCLES %q", n)
		}
		cycles := 0
		thenOnCycle(&cfg, func(core.CycleRecord) {
			if cycles++; cycles >= after {
				panic(fmt.Sprintf("injected panic after %d cycles", cycles))
			}
		})
	}
	var feed *fleetFeed
	if *opts.coordURL != "" {
		feed = &fleetFeed{consumed: make(map[int64]float64)}
		thenOnCycle(&cfg, feed.add)
	}
	if *opts.state != "" {
		w := newCheckpointWriter(*opts.state, st)
		cfg.Checkpoint = func(s alps.RunnerState) { w.Offer(s) }
		// Close flushes the newest state, so an orderly shutdown leaves
		// the final cycle durable for the next restart-in-place.
		defer w.Close()
	}
	// Catch signals before the runner adopts, and so stops, any process:
	// one that arrives meanwhile waits in sigs for the side loop instead
	// of exiting with the workload stopped. They stay caught until return,
	// so the health line written on the way out cannot kill the process
	// before spawn mode reaps its children. One slot per signal, so a
	// burst of different signals drops none of them.
	caught := []os.Signal{os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE,
		syscall.SIGUSR1, syscall.SIGUSR2}
	sigs := make(chan os.Signal, len(caught))
	signal.Notify(sigs, caught...)
	defer signal.Stop(sigs)
	r, err := buildRunner(cfg, tasks, *opts.state)
	if err != nil {
		return err
	}
	confPath := *opts.conf
	ctx, stopSide := st.startSideLoop(sigs, r, confPath)
	defer stopSide()
	if confPath != "" {
		// Initial apply: a missing file is fine (it may be written later
		// and SIGHUPped in), but an invalid one fails the start — with
		// the workload resumed by Release on the way out.
		if _, serr := os.Stat(confPath); serr == nil {
			if cerr := applyConfigFile(r, st.aud, confPath); cerr != nil {
				r.Release()
				return fmt.Errorf("initial -config %s: %w", confPath, cerr)
			}
			errlog.Info("config applied", "path", confPath)
		}
	}
	var link *coord.Agent
	if feed != nil {
		agent, stopLink, lerr := startCoordLink(r, st, feed, *opts.coordURL, *opts.shard, *opts.capacity)
		if lerr != nil {
			r.Release()
			return lerr
		}
		link = agent
		defer stopLink()
	}
	st.lateness = func() time.Duration { return r.Health().LastLateness }
	shutdown, serr := st.serve(func() any {
		h := r.Health()
		resp := struct {
			alps.RunnerHealth
			Degraded  bool
			Quantiles latencyQuantiles
			Coord     *coord.LinkStatus `json:",omitempty"`
		}{RunnerHealth: h, Degraded: h.Degraded(), Quantiles: st.quantiles()}
		if link != nil {
			ls := link.Status()
			resp.Coord = &ls
		}
		return resp
	}, adminConfigHandler(r, st.aud))
	if serr != nil {
		r.Release()
		return serr
	}
	defer shutdown()
	defer func() {
		// The Runner resumes the workload on every exit from Run,
		// including panics unwinding out of its own loop; this converts
		// any panic reaching here (from callbacks, logging, ...) into an
		// orderly error exit after one more belt-and-braces Release, so
		// a controller crash never leaves a process frozen.
		if p := recover(); p != nil {
			r.Release()
			err = fmt.Errorf("panic: %v", p)
		}
		fmt.Fprintln(stderr, "alps: health:", r.Health())
	}()
	err = r.Run(ctx)
	if err == context.Canceled {
		return nil
	}
	return err
}

// startSideLoop starts the one goroutine that does a run's work off the
// control loop, and returns the run's context with a stop func that
// returns once the goroutine has exited. SIGINT and SIGTERM cancel the
// context. So do SIGHUP when there is no -config to reload, and a closed
// stdout or stderr (outputLost): Go's runtime would exit on an uncaught
// SIGHUP, or on SIGPIPE from fd 1 or 2, without running Release. With
// -config, SIGHUP re-applies the file. SIGUSR1 writes the journal to
// stderr, SIGUSR2 triggers the flight recorder, and every
// healthLogEvery the health line is logged, also while no cycle
// completes.
func (st *obsStack) startSideLoop(sigs <-chan os.Signal, r *alps.Runner, confPath string) (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	health := time.NewTicker(healthLogEvery)
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		lost := outputLost
		for {
			select {
			case sig := <-sigs:
				switch {
				case sig == syscall.SIGUSR1:
					_ = st.journal.WriteText(stderr)
				case sig == syscall.SIGUSR2:
					if !st.rec.Trigger("manual") {
						errlog.Info("manual trace dump suppressed (cooldown, or nothing recorded yet)")
					}
				case sig == syscall.SIGPIPE:
					// Any write to a closed pipe or socket raises it, an
					// HTTP client's hang-up included; lost decides.
				case sig == syscall.SIGHUP && confPath != "":
					if err := applyConfigFile(r, st.aud, confPath); err != nil {
						errlog.Error("config reload rejected", "path", confPath, "err", err)
					} else {
						errlog.Info("config reloaded", "path", confPath)
					}
				default:
					cancel()
				}
			case <-lost:
				lost = nil // closed for good; stop selecting it
				cancel()
			case <-health.C:
				st.logHealthLine()
			case <-done:
				return
			}
		}
	}()
	return ctx, func() {
		health.Stop()
		close(done)
		<-exited
		cancel()
	}
}

// cycleLogger returns the -log consumption logger: one structured line
// per completed cycle on stdout (msg "cycle", one taskN attribute per
// task), or nil when disabled so the OnCycle chain stays minimal.
func cycleLogger(enabled bool) func(core.CycleRecord) {
	if !enabled {
		return nil
	}
	logger := slog.New(slog.NewTextHandler(stdout, nil))
	return func(rec core.CycleRecord) {
		var total time.Duration
		for _, t := range rec.Tasks {
			total += t.Consumed
		}
		attrs := []any{
			slog.Int("index", rec.Index),
			slog.Int64("tick", rec.Tick),
			slog.Duration("length", rec.Length),
		}
		for _, t := range rec.Tasks {
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(t.Consumed) / float64(total)
			}
			attrs = append(attrs, slog.String(
				fmt.Sprintf("task%d", t.ID),
				fmt.Sprintf("%v(%.1f%%)", t.Consumed.Round(time.Millisecond), pct)))
		}
		logger.Info("cycle", attrs...)
	}
}

func parsePidShares(args []string) ([]alps.RunnerTask, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("no pid:share pairs given")
	}
	var tasks []alps.RunnerTask
	seen := make(map[int]bool, len(args))
	for i, a := range args {
		pidStr, shareStr, ok := strings.Cut(a, ":")
		if !ok {
			return nil, fmt.Errorf("bad pid:share %q", a)
		}
		pid, err := strconv.Atoi(pidStr)
		if err != nil {
			return nil, fmt.Errorf("bad pid in %q: %v", a, err)
		}
		if pid <= 0 {
			return nil, fmt.Errorf("pid must be positive in %q", a)
		}
		if seen[pid] {
			return nil, fmt.Errorf("duplicate pid %d: each process belongs to exactly one principal", pid)
		}
		seen[pid] = true
		share, err := strconv.ParseInt(shareStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad share in %q: %v", a, err)
		}
		if share <= 0 {
			return nil, fmt.Errorf("share must be positive in %q", a)
		}
		tasks = append(tasks, alps.RunnerTask{ID: alps.TaskID(i), Share: share, PIDs: []int{pid}})
	}
	return tasks, nil
}

func cmdAttach(args []string) error {
	fs := flag.NewFlagSet("attach", flag.ExitOnError)
	opts := commonFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := opts.validate(); err != nil {
		return err
	}
	tasks, err := parsePidShares(fs.Args())
	if err != nil {
		return err
	}
	return runUntilSignal(opts.config(), tasks, opts)
}

func cmdSpawn(args []string) error {
	fs := flag.NewFlagSet("spawn", flag.ExitOnError)
	opts := commonFlags(fs)
	sharesStr := fs.String("shares", "", "comma-separated shares, one process per share")
	children := fs.Bool("children", false, "track each command's descendants (prefork servers), refreshed every second")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := opts.validate(); err != nil {
		return err
	}
	if *opts.state != "" {
		// Spawned children are killed when alps exits, so there is
		// nothing for a restarted instance to re-adopt; a stale state
		// file would only mask that.
		return fmt.Errorf("-state is not supported in spawn mode (spawned processes die with alps; use attach to schedule independent processes)")
	}
	cmdArgs := fs.Args()
	if len(cmdArgs) == 0 {
		return fmt.Errorf("no command given")
	}
	if *sharesStr == "" {
		return fmt.Errorf("-shares is required")
	}
	var shares []int64
	for _, s := range strings.Split(*sharesStr, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fmt.Errorf("bad share %q: %v", s, err)
		}
		if v <= 0 {
			return fmt.Errorf("share must be positive, got %q", s)
		}
		shares = append(shares, v)
	}
	var tasks []alps.RunnerTask
	var procs []*exec.Cmd
	for i, share := range shares {
		cmd := exec.Command(cmdArgs[0], cmdArgs[1:]...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		// Each spawned command leads its own process group, so the runner
		// can suspend/resume the whole principal with one kill(-pgid) and
		// any children it forks are covered by the same signal.
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		if err := cmd.Start(); err != nil {
			for _, p := range procs {
				_ = p.Process.Kill()
			}
			return fmt.Errorf("start %q: %w", cmdArgs[0], err)
		}
		procs = append(procs, cmd)
		fmt.Fprintf(os.Stderr, "alps: started pid %d with share %d\n", cmd.Process.Pid, share)
		tasks = append(tasks, alps.RunnerTask{
			ID: alps.TaskID(i), Share: share,
			PIDs: []int{cmd.Process.Pid}, PGID: cmd.Process.Pid,
		})
	}
	defer func() {
		for _, p := range procs {
			_ = p.Process.Kill()
			_ = p.Wait()
		}
	}()
	cfg := opts.config()
	if *children {
		// Each spawned command is a resource principal covering its
		// whole process tree (e.g. a prefork server and its workers),
		// re-resolved once per second as in the paper's §5.
		roots := make([]int, len(procs))
		for i, p := range procs {
			roots[i] = p.Process.Pid
		}
		cfg.RefreshEvery = time.Second
		cfg.Refresh = func() map[alps.TaskID][]int {
			m := make(map[alps.TaskID][]int, len(roots))
			for i, root := range roots {
				pids, err := alps.Descendants(root)
				if err != nil {
					continue
				}
				m[alps.TaskID(i)] = pids
			}
			return m
		}
	}
	return runUntilSignal(cfg, tasks, opts)
}

func cmdUser(args []string) error {
	fs := flag.NewFlagSet("user", flag.ExitOnError)
	opts := commonFlags(fs)
	refresh := fs.Duration("refresh", time.Second, "membership refresh period")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := opts.validate(); err != nil {
		return err
	}
	if *refresh <= 0 {
		return fmt.Errorf("refresh period must be positive, got -refresh %v", *refresh)
	}
	type principal struct {
		uid   uint32
		share int64
	}
	var principals []principal
	for _, a := range fs.Args() {
		name, shareStr, ok := strings.Cut(a, ":")
		if !ok {
			return fmt.Errorf("bad name:share %q", a)
		}
		u, err := user.Lookup(name)
		if err != nil {
			return err
		}
		uid, err := strconv.ParseUint(u.Uid, 10, 32)
		if err != nil {
			return fmt.Errorf("non-numeric uid %q for %s", u.Uid, name)
		}
		share, err := strconv.ParseInt(shareStr, 10, 64)
		if err != nil {
			return fmt.Errorf("bad share in %q: %v", a, err)
		}
		principals = append(principals, principal{uint32(uid), share})
	}
	if len(principals) == 0 {
		return fmt.Errorf("no user:share pairs given")
	}
	self := os.Getpid()
	membership := func() map[alps.TaskID][]int {
		m := make(map[alps.TaskID][]int)
		for i, p := range principals {
			pids, err := alps.PidsOfUser(p.uid)
			if err != nil {
				continue
			}
			var filtered []int
			for _, pid := range pids {
				if pid != self {
					filtered = append(filtered, pid)
				}
			}
			m[alps.TaskID(i)] = filtered
		}
		return m
	}
	initial := membership()
	live := 0
	for _, pids := range initial {
		live += len(pids)
	}
	if live == 0 {
		return fmt.Errorf("no live processes found for any of the given users (nothing to schedule)")
	}
	var tasks []alps.RunnerTask
	for i, p := range principals {
		tasks = append(tasks, alps.RunnerTask{ID: alps.TaskID(i), Share: p.share, PIDs: initial[alps.TaskID(i)]})
	}
	cfg := opts.config()
	cfg.RefreshEvery = *refresh
	cfg.Refresh = membership
	return runUntilSignal(cfg, tasks, opts)
}
