package osproc

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"alps/internal/core"
	"alps/internal/obs"
)

// Task binds a core task to the real processes it covers: one PID for
// ordinary per-process scheduling, several for a §5-style resource
// principal.
type Task struct {
	ID    core.TaskID
	Share int64
	PIDs  []int
	// PGID, when nonzero, asserts that every PID belongs to this process
	// group, letting the runner suspend or resume the whole principal
	// with a single kill(-pgid) syscall instead of one per member.
	// Membership is verified via getpgid at adoption; a claim that does
	// not hold (attach mode, mixed groups) silently falls back to per-PID
	// delivery. cmd/alps sets it for spawned workloads (Setpgid at fork).
	PGID int
}

// Config parameterizes a Runner.
type Config struct {
	// Quantum is the ALPS quantum Q. The paper's sweet spot is
	// 10–40 ms; note /proc accounting advances in 10 ms ticks, so
	// quanta below 10 ms cannot observe progress.
	Quantum time.Duration
	// Samplers bounds the worker pool that fans out /proc stat reads
	// (prefetched for the tasks due this quantum) and SIGSTOP/SIGCONT
	// deliveries. Values ≤ 1 keep the loop fully sequential — the
	// deterministic default for tests; cmd/alps passes GOMAXPROCS via
	// -samplers. Per-PID read outcomes and all bookkeeping order are
	// identical either way: workers only perform the raw Sys calls, and
	// results are merged on the loop goroutine in decision order.
	Samplers int
	// DisableIndexing forces the seed control loop: the core scheduler's
	// reference O(N)-per-quantum path, an eligibility reconciliation
	// sweep on every quantum, and strictly sequential sampling and
	// signalling regardless of Samplers. It exists as the baseline the
	// §4.2 scale benchmark measures the optimized loop against.
	DisableIndexing bool
	// OnCycle receives per-cycle consumption records.
	OnCycle func(core.CycleRecord)
	// RefreshEvery re-resolves task membership that often via Refresh.
	RefreshEvery time.Duration
	// Refresh returns the current PID membership per task (e.g. from
	// PidsOfUser). Tasks absent from the map keep their membership.
	Refresh func() map[core.TaskID][]int
	// OnError, if non-nil, receives non-fatal per-process errors
	// (vanished PIDs, signal failures, refresh problems).
	OnError func(error)
	// Sys overrides the OS surface; nil means the real /proc + kill(2)
	// implementation. Tests install a fault-injecting fake here. The
	// runner reads time only through Sys.Now, so over FaultSys the
	// fake's slow reads surface as quantum lateness.
	Sys Sys
	// Observer, if non-nil, receives the core algorithm's decision
	// events (see obs.Event), plus the runner's own signal/sleep phase
	// markers. Events are stamped with the Sys clock's time elapsed
	// since the runner was created.
	Observer obs.Observer
	// Metrics, if non-nil, receives the runner's health telemetry
	// (exported at scrape time from the same atomics Health reads) and
	// latency histograms: step lateness, /proc read duration, and
	// signal-delivery duration.
	Metrics *obs.Registry
	// Checkpoint, if non-nil, is called at the end of any Step that
	// completed at least one allocation cycle, with the runner's full
	// durable state. It runs on the control-loop goroutine (under the
	// loop lock), so it must be fast; cmd/alps uses it to persist a
	// ckpt file per cycle.
	Checkpoint func(RunnerState)
	// Overload configures the §4.2 overload guard; the zero value
	// leaves it disabled.
	Overload OverloadConfig
}

// Fault-tolerance knobs. Real systems exhibit every one of these failure
// modes routinely (PIDs vanishing mid-cycle, EPERM after a setuid exec,
// timer overruns under load); the constants bound how much of a quantum
// the loop spends recovering from them.
const (
	// maxBadPIDStrikes is the number of consecutive failing quanta
	// after which a PID that exists but refuses us (EPERM on signals,
	// unreadable stat) is dropped so the rest of the workload keeps its
	// guarantees.
	maxBadPIDStrikes = 3
	// maxCatchUpTicks caps the extra algorithm invocations issued in
	// one Step to compensate overrun quanta, so a long scheduler stall
	// cannot trigger a storm of signals on resume.
	maxCatchUpTicks = 4
)

// proc is the runner's record of one controlled process. Every member PID
// of every task has exactly one: join creates it, and forget (or leave,
// which resumes the process first) deletes it.
type proc struct {
	task    core.TaskID
	cpu     time.Duration // last observed cumulative CPU
	start   uint64        // /proc start time at join (reuse guard)
	stopped bool          // the runner has the process SIGSTOPped
	badSig  int           // consecutive failed signal deliveries
	badRead int           // consecutive denied stat reads
}

// members is one task's entry: its member PIDs in join order, and the
// process group each member was confirmed (getpgid) to be in, so that an
// eligibility flip costs one syscall. pgid 0 means per-PID delivery.
// groupStop is the Step (its start on Sys.Now) whose group SIGSTOP last
// reached the task.
type members struct {
	pids      []int
	pgid      int
	groupStop time.Time
}

// Runner executes the ALPS control loop over real processes. Create it
// with NewRunner (or NewRunnerFromState after a crash), then call Run;
// the loop holds no goroutines besides the caller's. Health may be
// called from any goroutine; State, Reconfigure, and Release serialize
// with the loop via an internal lock.
type Runner struct {
	cfg   Config
	sys   Sys
	sched *core.Scheduler

	// loopMu serializes the control loop (Step) with the cross-goroutine
	// entry points: State (checkpoint/admin reads), Reconfigure (SIGHUP
	// and /admin/config), and Release. The loop takes it once per
	// quantum, so contention is negligible.
	loopMu sync.Mutex

	// procs is the process table, one record per controlled PID, and
	// tasks holds one entry per scheduler task. join is the only way a PID
	// enters them; forget and leave are the only ways out.
	procs map[int]*proc
	tasks map[core.TaskID]*members

	// sigOps and sigResults are enact's per-quantum scratch, reused
	// across ticks so the steady-state signal path allocates nothing.
	sigOps     []sigOp
	sigResults []sigResult

	// pool fans sampling and signalling out over Config.Samplers workers;
	// prefetchOne and deliverOne are its item functions (prefetchAt and
	// deliverAt), bound once so a fan-out allocates nothing.
	pool        pool
	prefetchOne func(int)
	deliverOne  func(int)

	lastRef  time.Time
	lastTick time.Time

	baseQ time.Duration // operator-configured quantum (pre-degradation)
	over  overloadState
	cpus  int // Sys.CPUs at construction: the cap on a task's drain width

	start   time.Time    // creation instant on Sys.Now, origin for event timestamps
	tracer  obs.Observer // stamped observer (nil when disabled)
	inSleep bool         // an open sleep phase span awaits the next Step
	health  healthCounters
	mx      *runnerMetrics // nil unless Config.Metrics was set

	// statCache holds the worker pool's prefetched stat reads for the
	// current quantum (nil when sampling sequentially); read() consumes
	// it so the Sys calls happen concurrently but every bookkeeping
	// decision stays on the loop goroutine. unread marks a tick whose
	// first read has yet to prefetch. statScratch is the retained
	// backing map (cleared, not reallocated, each quantum), and
	// prefetchPIDs/prefetchRes the retained fan-out buffers.
	unread       bool
	statCache    map[int]statResult
	statScratch  map[int]statResult
	prefetchPIDs []int
	prefetchRes  []statResult
	// needReconcile requests a full eligibility reconciliation sweep on
	// the next quantum. Set whenever suspension state may disagree with
	// eligibility — a failed signal delivery, a membership refresh, a
	// reconfiguration, or crash recovery — so the amortized loop never
	// skips a sweep it actually needs (see maybeReconcile).
	needReconcile bool
}

// NewRunner builds a runner controlling the given tasks. All live task
// processes start ineligible: they are SIGSTOPped here and resumed when
// the algorithm first grants them their allowance (§2.2). PIDs that are
// already gone are dropped (and counted in Health); if every requested
// PID is gone, NewRunner fails with ErrNoLiveProcess rather than
// pretending to schedule an empty workload. A task list that names a PID
// twice is rejected before anything is signalled, and a live PID that
// refuses SIGSTOP fails NewRunner. Call Run to start scheduling and always
// let it return (or call Release) so the workload is not left stopped.
func NewRunner(cfg Config, tasks []Task) (*Runner, error) {
	if cfg.Quantum < ClockTick {
		return nil, fmt.Errorf("osproc: quantum %v is below the /proc accounting tick %v", cfg.Quantum, ClockTick)
	}
	r := newRunnerSkeleton(cfg)
	owner := make(map[int]core.TaskID)
	requested := 0
	for _, t := range tasks {
		if err := r.sched.Add(t.ID, t.Share); err != nil {
			return nil, err
		}
		for _, pid := range t.PIDs {
			if prev, dup := owner[pid]; dup {
				return nil, fmt.Errorf("osproc: pid %d is named by tasks %d and %d; each process belongs to one task", pid, prev, t.ID)
			}
			owner[pid] = t.ID
		}
		r.tasks[t.ID] = &members{pgid: t.PGID}
		requested += len(t.PIDs)
	}
	for _, t := range tasks {
		for _, pid := range t.PIDs {
			if err := r.join(t.ID, pid, 0); err != nil {
				r.Release()
				return nil, err
			}
		}
	}
	if requested > 0 && len(r.procs) == 0 {
		r.Release()
		return nil, ErrNoLiveProcess
	}
	return r, nil
}

// join adopts pid into task id, and is the only way a PID enters the
// process table. A PID already in the table moves to the task and keeps
// its baseline. start is the /proc start time a checkpoint recorded for
// the PID, or 0 if none was:
//   - a recorded PID is read first; if its start time changed, the kernel
//     recycled it, and it is dropped unsignalled (ReusedPIDs);
//   - any other PID is signalled first, stopped if its task is
//     ineligible, and read afterwards, so its baseline covers all CPU up
//     to suspension.
//
// Every joiner is then aligned with its task's eligibility and, if the
// task claims a process group, checked with getpgid; a mismatch demotes
// the task to per-PID signalling. A joiner that is gone or a zombie is
// dropped (VanishedPIDs). Any other failed join signal drops the PID
// (UnsignalablePIDs) and is returned, so that NewRunner can fail on it.
func (r *Runner) join(id core.TaskID, pid int, start uint64) error {
	p := r.procs[pid]
	if p != nil && p.task == id {
		return nil
	}
	fresh := p == nil
	if fresh {
		p = &proc{task: id}
		r.procs[pid] = p
	} else {
		r.unlink(pid, p)
		p.task = id
	}
	m := r.tasks[id]
	m.pids = append(m.pids, pid)
	if fresh {
		if start == 0 {
			if ok, err := r.alignJoiner(pid, p); !ok {
				return err
			}
		}
		if !r.baseline(pid, p, start) {
			return nil
		}
	}
	if ok, err := r.alignJoiner(pid, p); !ok {
		return err
	}
	if m.pgid != 0 {
		if got, err := r.sys.Pgid(pid); err != nil || got != m.pgid {
			r.errf("task %d: pid %d is not in process group %d (pgid=%d err=%v); using per-PID signalling",
				id, pid, m.pgid, got, err)
			m.pgid = 0
		}
	}
	return nil
}

// baseline takes a fresh joiner's first reading. A joiner that cannot be
// read or is a zombie is let go (VanishedPIDs), and one whose start time
// differs from the recorded start is forgotten unsignalled (ReusedPIDs);
// baseline reports whether the PID is still a member. A joiner found
// stopped is recorded as stopped, so aligning it with an eligible task
// resumes it: a dead instance may have left it SIGSTOPped.
func (r *Runner) baseline(pid int, p *proc, start uint64) bool {
	st, err := r.readStat(pid)
	switch {
	case err != nil || st.State == 'Z':
		r.health.vanished.Add(1)
		r.errf("join pid %d to task %d: gone or a zombie (err=%v)", pid, p.task, err)
		r.leave(pid)
		return false
	case start != 0 && st.Start != start:
		r.health.reused.Add(1)
		r.errf("join pid %d: recycled by the kernel (start %d -> %d); dropping without signalling", pid, start, st.Start)
		r.forget(pid)
		return false
	}
	p.cpu, p.start = st.CPU, st.Start
	p.stopped = p.stopped || st.State == 'T'
	return true
}

// alignJoiner aligns a joiner with its task's eligibility through the
// loop's delivery routine, and drops it if that delivery fails: as
// vanished if the process is gone, else as unsignalable, returning the
// error. It reports whether the PID is still a member.
func (r *Runner) alignJoiner(pid int, p *proc) (bool, error) {
	res, sent := r.align(pid, p)
	if !sent || res.ok {
		return true, nil
	}
	r.forget(pid)
	if res.gone {
		r.health.vanished.Add(1)
		r.errf("join pid %d to task %d: %s: %v (vanished)", pid, p.task, sigName(res.stop), res.err)
		return false, nil
	}
	r.health.unsignalable.Add(1)
	r.errf("join pid %d to task %d: %s: %v (unsignalable; dropping)", pid, p.task, sigName(res.stop), res.err)
	return false, fmt.Errorf("osproc: cannot %s pid %d: %w", sigName(res.stop), pid, res.err)
}

// align sends pid the signal, if any, that brings its run state in line
// with its task's eligibility, and records a delivered one. sent is false
// when the PID was already aligned. join and reconcile share it.
func (r *Runner) align(pid int, p *proc) (res sigResult, sent bool) {
	st, _ := r.sched.State(p.task)
	stop := st == core.Ineligible
	if p.stopped == stop {
		return sigResult{}, false
	}
	res = r.deliverOp(sigOp{pid: pid, task: p.task, stop: stop})
	if res.ok {
		p.stopped = stop
	}
	return res, true
}

// forget deletes pid's record without signalling it, for a process that
// is gone, a PID the kernel recycled, or a process that refuses signals,
// and releases its read handle.
func (r *Runner) forget(pid int) {
	if p := r.procs[pid]; p != nil {
		r.unlink(pid, p)
		delete(r.procs, pid)
	}
	r.sys.Forget(pid)
}

// leave lets pid go on every other departure: a refresh or SetPIDs
// departure, Remove, a dead task, a PID dropped after denied reads. It
// resumes the process if the runner has it stopped, then forgets it, so
// no PID is forgotten while it is stopped.
func (r *Runner) leave(pid int) {
	if p := r.procs[pid]; p != nil && p.stopped {
		r.resume(pid)
	}
	r.forget(pid)
}

// unlink removes pid from its task's member order.
func (r *Runner) unlink(pid int, p *proc) {
	m := r.tasks[p.task]
	if i := slices.Index(m.pids, pid); i >= 0 {
		m.pids = slices.Delete(m.pids, i, i+1)
	}
}

// dropTask lets every member of task id go and deletes the task's entry.
func (r *Runner) dropTask(id core.TaskID) {
	if m := r.tasks[id]; m != nil {
		for len(m.pids) > 0 {
			r.leave(m.pids[0])
		}
	}
	delete(r.tasks, id)
}

// eachMember calls fn on each member of m in order. fn may let go of the
// PID it is handed, and of no other.
func (r *Runner) eachMember(m *members, fn func(pid int, p *proc)) {
	for i := 0; i < len(m.pids); {
		pid := m.pids[i]
		fn(pid, r.procs[pid])
		if i < len(m.pids) && m.pids[i] == pid {
			i++
		}
	}
}

// newRunnerSkeleton builds a Runner with its maps, clock, scheduler, and
// telemetry wired but no tasks registered; NewRunner and
// NewRunnerFromState populate it.
func newRunnerSkeleton(cfg Config) *Runner {
	if cfg.Sys == nil {
		cfg.Sys = RealSys{}
	}
	cfg.Overload = cfg.Overload.withDefaults()
	r := &Runner{
		cfg:   cfg,
		sys:   cfg.Sys,
		procs: make(map[int]*proc),
		tasks: make(map[core.TaskID]*members),
		baseQ: cfg.Quantum,
		cpus:  max(cfg.Sys.CPUs(), 1),
		start: cfg.Sys.Now(),
	}
	r.prefetchOne, r.deliverOne = r.prefetchAt, r.deliverAt
	r.tracer = obs.Stamp(func() time.Duration {
		return r.sys.Now().Sub(r.start)
	}, cfg.Observer)
	r.sched = core.New(core.Config{
		Quantum:         cfg.Quantum,
		DisableIndexing: cfg.DisableIndexing,
		OnCycle:         cfg.OnCycle,
		Observer:        r.tracer,
	})
	r.health.effQuantumNS.Store(int64(cfg.Quantum))
	if cfg.Metrics != nil {
		r.registerMetrics(cfg.Metrics)
	}
	return r
}

// emit delivers a runner-originated event (reconfig, degrade) to the
// stamped observer.
func (r *Runner) emit(e obs.Event) {
	if r.tracer != nil {
		r.tracer.Observe(e)
	}
}

// phase brackets the runner's own control-loop phases (signal, sleep) in
// the event stream; the core emits the in-quantum phases itself.
func (r *Runner) phase(k obs.Kind, p obs.Phase) {
	if r.tracer != nil {
		r.tracer.Observe(obs.Event{Kind: k, Tick: r.sched.Tick(), Task: -1, N: int(p)})
	}
}

// Scheduler exposes the underlying core scheduler for inspection.
func (r *Runner) Scheduler() *core.Scheduler { return r.sched }

// Health returns a snapshot of the runner's fault and timing telemetry.
// Safe to call from any goroutine.
func (r *Runner) Health() Health { return r.health.snapshot() }

// Run executes the control loop until the context is cancelled or every
// controlled process has exited. On return — including a panic unwinding
// out of the loop — all still-suspended processes have been resumed: the
// workload is never left frozen.
func (r *Runner) Run(ctx context.Context) error {
	// A timer re-armed with the current effective quantum each pass,
	// rather than a fixed ticker: the overload guard may stretch the
	// quantum mid-run and the loop must slow down with it.
	timer := time.NewTimer(r.EffectiveQuantum())
	defer timer.Stop()
	defer r.Release()
	r.loopMu.Lock()
	r.lastRef = r.sys.Now()
	r.lastTick = r.sys.Now()
	r.loopMu.Unlock()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
			if done := r.Step(); done {
				return nil
			}
			timer.Reset(r.EffectiveQuantum())
		}
	}
}

// EffectiveQuantum returns the quantum currently in force: the
// configured quantum, possibly stretched by the overload guard. Safe to
// call from any goroutine.
func (r *Runner) EffectiveQuantum() time.Duration {
	return time.Duration(r.health.effQuantumNS.Load())
}

// Step runs a single quantum of the algorithm (one or more TickQuantum
// invocations plus the resulting signals). It reports true when no tasks
// remain. Most callers use Run; Step exists for callers integrating with
// their own loop. If a panic escapes Step (from an OnCycle callback, or
// a bug), every suspended process is resumed before the panic continues
// unwinding.
func (r *Runner) Step() (done bool) {
	r.loopMu.Lock()
	defer r.loopMu.Unlock()
	defer func() {
		if p := recover(); p != nil {
			r.releaseLocked()
			panic(p)
		}
	}()
	if r.inSleep {
		r.inSleep = false
		r.phase(obs.KindPhaseEnd, obs.PhaseSleep)
	}
	effQ := r.EffectiveQuantum()
	now := r.sys.Now()
	passes := 1
	if !r.lastTick.IsZero() {
		// Timer-overrun detection: a tick that fires ≥ 2Q after its
		// predecessor means quanta were missed (scheduler stall, slow
		// /proc reads, suspend/resume of the controller itself).
		// Without compensation the cycle silently stretches in wall
		// time — blocked tasks are charged Q per *invocation*, not per
		// elapsed quantum — so issue capped catch-up invocations.
		late := now.Sub(r.lastTick) - effQ
		if late < 0 {
			late = 0
		}
		r.health.noteLateness(late)
		if r.mx != nil {
			r.mx.cycleLateness.Observe(late.Seconds())
		}
		if missed := int64(late / effQ); missed > 0 {
			r.health.missedTicks.Add(missed)
			extra := missed
			if extra > maxCatchUpTicks {
				extra = maxCatchUpTicks
			}
			r.health.catchUpTicks.Add(extra)
			passes += int(extra)
		}
	}
	r.lastTick = now

	if r.cfg.Refresh != nil && r.cfg.RefreshEvery > 0 && now.Sub(r.lastRef) >= r.cfg.RefreshEvery {
		r.lastRef = now
		r.refresh(r.cfg.Refresh())
	}

	cyclesBefore := r.sched.Cycles()
	workBegin := r.sys.Now()
	for i := 0; i < passes && !done; i++ {
		done = r.tickOnce()
	}
	// Per-invocation control-loop work drives the §4.2 overload guard:
	// divide by the passes actually run so catch-up bursts are not
	// mistaken for sustained overload.
	r.noteWork(r.sys.Now().Sub(workBegin) / time.Duration(passes))
	r.health.dormant.Store(int64(r.sched.NumDormant()))

	if r.cfg.Checkpoint != nil && r.sched.Cycles() > cyclesBefore {
		r.cfg.Checkpoint(r.stateLocked())
	}
	if !done {
		r.inSleep = true
		r.phase(obs.KindPhaseBegin, obs.PhaseSleep)
	}
	return done
}

// tickOnce is one algorithm invocation: TickQuantum plus enacting its
// eligibility transitions.
func (r *Runner) tickOnce() bool {
	r.unread = true
	dec := r.sched.TickQuantum(r.read)
	r.unread, r.statCache = false, nil
	r.phase(obs.KindPhaseBegin, obs.PhaseSignal)
	r.enact(dec)
	for _, id := range dec.Dead {
		r.dropTask(id)
	}
	r.maybeReconcile(dec)
	r.phase(obs.KindPhaseEnd, obs.PhaseSignal)
	r.health.ticks.Add(1)
	return r.sched.Len() == 0
}

// sigOp is one pending signal delivery: a single PID, or — when group
// is set — an entire process group owned by task (pid then holds the
// pgid), delivered with one kill(-pgid) syscall.
type sigOp struct {
	pid   int
	task  core.TaskID
	stop  bool
	group bool
}

// enact delivers the quantum's SIGSTOP/SIGCONT batch. A task with a
// verified process group costs one syscall per eligibility flip
// regardless of member count; everything else goes per PID. With more
// than one worker the raw deliveries run concurrently, but strike
// accounting, drops, and the process records are updated on the loop
// goroutine in decision order, so the outcome is identical to the
// sequential path.
func (r *Runner) enact(dec core.Decision) {
	ops := r.sigOps[:0]
	for _, id := range dec.Suspend {
		ops = r.appendOps(ops, id, true)
	}
	for _, id := range dec.Resume {
		ops = r.appendOps(ops, id, false)
	}
	r.sigOps = ops
	if w := r.workers(); w > 1 && len(ops) > 1 {
		if cap(r.sigResults) < len(ops) {
			r.sigResults = make([]sigResult, len(ops))
		}
		r.sigResults = r.sigResults[:len(ops)]
		r.pool.run(w, len(ops), r.deliverOne)
		for i, op := range ops {
			r.settleOp(op, r.sigResults[i])
		}
		return
	}
	for _, op := range ops {
		r.settleOp(op, r.deliverOp(op))
	}
}

// appendOps expands one task's eligibility flip into signal operations:
// a single group op when the task owns a verified process group, else
// one op per member PID.
func (r *Runner) appendOps(ops []sigOp, id core.TaskID, stop bool) []sigOp {
	m := r.tasks[id]
	if m.pgid != 0 && len(m.pids) > 0 {
		return append(ops, sigOp{pid: m.pgid, task: id, stop: stop, group: true})
	}
	for _, pid := range m.pids {
		ops = append(ops, sigOp{pid: pid, task: id, stop: stop})
	}
	return ops
}

// deliverAt is one signal fan-out item: the delivery of sigOps[i].
func (r *Runner) deliverAt(i int) { r.sigResults[i] = r.deliverOp(r.sigOps[i]) }

// deliverOp performs one op's raw SIGSTOP (stop) or SIGCONT delivery —
// kill(pid), or kill(-pgid) for a group op — once. kill(2) fails only
// with ESRCH, EPERM or EINVAL, and never transiently for these two
// signals, so a failure is final for this quantum (for a group op,
// settleOp then falls back to per-PID delivery to settle individual
// members). It touches only the Sys surface and its latency histogram,
// so the signal batcher may run many deliveries concurrently on pool
// workers; all record bookkeeping is deferred to settleOp and
// applySignal.
func (r *Runner) deliverOp(op sigOp) sigResult {
	if r.mx != nil {
		begin := r.sys.Now()
		defer func() { r.mx.signalDur.Observe(r.sys.Now().Sub(begin).Seconds()) }()
	}
	send := r.sys.Cont
	switch {
	case op.group && op.stop:
		send = r.sys.StopGroup
	case op.group:
		send = r.sys.ContGroup
	case op.stop:
		send = r.sys.Stop
	}
	res := sigResult{pid: op.pid, stop: op.stop, err: send(op.pid)}
	res.ok = res.err == nil
	res.gone = !res.ok && classify(res.err) == errGone
	return res
}

// settleOp applies one delivery's bookkeeping on the loop goroutine.
func (r *Runner) settleOp(op sigOp, res sigResult) {
	if !op.group {
		r.applySignal(res)
		return
	}
	m := r.tasks[op.task]
	if res.ok {
		// One syscall covered the whole group: POSIX kill(-pgid) succeeds
		// when it signalled at least one member. A member that exited
		// mid-call simply was not there to signal — the next measurement
		// observes it gone and drops it — so no strikes are charged here
		// and none can be double-charged later. A member the kernel
		// silently skipped (credential change) is recorded with the rest
		// and caught later: a skipped resume by the measurement loop's
		// stopped-state check, a skipped stop by the reconcile sweep's
		// read of ineligible group tasks (see reconcile).
		for _, pid := range m.pids {
			r.procs[pid].stopped = op.stop
		}
		if op.stop {
			m.groupStop = r.lastTick
		}
		return
	}
	// The group call failed as a whole: ESRCH (every member already
	// gone) or EPERM (members exist but none signalable). Fall back to
	// per-PID delivery so each member's
	// outcome is settled individually — vanished members are dropped,
	// refusing members are struck at most once each, and no survivor is
	// left in the wrong run state.
	r.errf("%s group %d (task %d): %v; falling back to per-PID delivery",
		sigName(op.stop), op.pid, op.task, res.err)
	r.eachMember(m, func(pid int, _ *proc) { r.signal(pid, op.stop) })
}

func sigName(stop bool) string {
	if stop {
		return "stop"
	}
	return "cont"
}

// maybeReconcile runs the full reconciliation sweep only when it can
// matter: something this quantum may have left suspension state
// disagreeing with eligibility (needReconcile: failed signals, refresh,
// reconfig, restore), eligibility moved en masse (a cycle grant) or
// membership changed (deaths) — plus a low-frequency safety-net sweep,
// and every quantum when DisableIndexing asks for the seed loop. A failed
// delivery sets needReconcile, and so does a failed re-send in the sweep,
// so a disagreement keeps the sweep running until it is settled. The
// sweep itself was the runner's last O(N)-per-quantum component after
// the core went O(due).
func (r *Runner) maybeReconcile(dec core.Decision) {
	const reconcileEvery = 16
	if r.cfg.DisableIndexing || r.needReconcile ||
		dec.CycleCompleted || len(dec.Dead) > 0 ||
		r.health.ticks.Load()%reconcileEvery == 0 {
		r.reconcile()
	}
}

// reconcile retries eligibility enforcement that previously failed. The
// decision stream alone is not enough under faults: a resume that failed
// leaves the PID frozen while its task is eligible — and since the task
// then consumes nothing, no new transition ever fires to retry the
// SIGCONT — while a stop that failed leaves the PID free-riding through
// its task's ineligible phase. Any PID whose actual suspension state
// disagrees with its task's eligibility gets the signal re-sent
// (accumulating unsignalability strikes on failure, so a permanently
// refusing PID is eventually dropped).
//
// A group SIGSTOP that skipped a member reports success, and ineligible
// tasks are not measured, so the sweep reads the members of each
// ineligible group task itself and records a running one as running,
// which makes align re-send SIGSTOP to that PID alone. A task whose group
// stop went out this quantum waits for the next sweep: the signal lands
// asynchronously, and reading it early would send spurious per-PID stops.
func (r *Runner) reconcile() {
	r.needReconcile = false
	for _, id := range r.sched.TaskIDs() {
		m := r.tasks[id]
		st, _ := r.sched.State(id)
		check := m.pgid != 0 && st == core.Ineligible && !m.groupStop.Equal(r.lastTick)
		r.eachMember(m, func(pid int, p *proc) {
			if check && p.stopped && r.running(pid, p) {
				p.stopped = false
			}
			if res, sent := r.align(pid, p); sent {
				r.applySignal(res)
			}
		})
	}
}

// running reads pid and reports whether it is the same process (start
// time) and neither stopped nor a zombie. A failed read proves nothing;
// the task's next measurement settles a PID that is gone or recycled.
func (r *Runner) running(pid int, p *proc) bool {
	st, err := r.readStat(pid)
	return err == nil && st.Start == p.start && st.State != 'T' && st.State != 'Z'
}

// readStat is every /proc read the runner makes, on the loop goroutine
// or a pool worker, and it times each one. A failed read is not retried:
// a re-read through the held descriptor returns the same result (ESRCH
// once the task is gone), and the caller classifies the failure.
func (r *Runner) readStat(pid int) (Stat, error) {
	if r.mx == nil {
		return r.sys.ReadStat(pid)
	}
	begin := r.sys.Now()
	st, err := r.sys.ReadStat(pid)
	r.mx.sampleDur.Observe(r.sys.Now().Sub(begin).Seconds())
	return st, err
}

// read is the core.Reader over the Sys surface. Failure handling per
// class: gone/zombie PIDs are forgotten (permanent); transiently
// unreadable PIDs are kept and charged nothing this quantum — the
// cumulative counters mean the consumption is charged at the next good
// read, never lost; repeatedly denied PIDs leave after
// maxBadPIDStrikes. A PID whose start time changed is an unrelated
// process that inherited the number (PID reuse) and is dropped before a
// single nanosecond of its CPU can be charged to the task.
//
// The §2.4 blocked vote: a principal is blocked only if every PID whose
// state was actually observed is blocked. Unreadable-but-kept PIDs
// abstain — one transient read race must not suppress the blocked charge
// an otherwise fully blocked principal is due. Only when *no* PID could
// be read does the principal report unblocked, keeping the original
// no-charge-on-guess behavior.
//
// The drain width is the number of members observed in state R (after
// RealSys's thread vote), capped at Sys.CPUs: processes, not threads, so
// a multi-threaded worker that uses one CPU keeps the paper's bound.
// Sleeping, stopped, zombie and unreadable members add nothing.
func (r *Runner) read(id core.TaskID) (core.Progress, bool) {
	if r.unread {
		// The tick's first read, inside the core's sample phase: fetch
		// the whole due batch at once.
		r.unread = false
		r.prefetch()
	}
	var consumed time.Duration
	alive := false
	reads := 0          // PIDs whose stat was successfully observed
	width := 0          // observed PIDs in state R
	sawRunning := false // some observed PID was not blocked
	r.eachMember(r.tasks[id], func(pid int, p *proc) {
		st, err := r.cachedStat(pid)
		if err != nil {
			switch classify(err) {
			case errGone:
				r.health.vanished.Add(1)
				r.forget(pid)
				return
			case errDenied:
				if p.badRead++; p.badRead >= maxBadPIDStrikes {
					r.health.unsignalable.Add(1)
					r.errf("read pid %d: %v (dropping after %d denied quanta)", pid, err, p.badRead)
					r.leave(pid)
					return
				}
			}
			// Keep the PID; its run state is unknown, so it abstains
			// from the blocked vote.
			alive = true
			return
		}
		p.badRead = 0
		switch {
		case st.State == 'Z':
			r.health.vanished.Add(1)
			r.forget(pid)
			return
		case st.Start != p.start:
			r.health.reused.Add(1)
			r.errf("pid %d was recycled by the kernel (start %d -> %d); dropping", pid, p.start, st.Start)
			r.forget(pid)
			return
		case st.State == 'T' && !p.stopped:
			// The member is stopped though the runner believes it running:
			// a group signal that silently skipped it (POSIX kill(-pgid)
			// succeeds once it signals any one member), or an external
			// SIGSTOP. Adopt the observed state and let the reconcile
			// sweep re-send SIGCONT through the strike machinery, so a
			// partially delivered group resume can never leave a survivor
			// frozen.
			p.stopped = true
			r.needReconcile = true
		}
		if d := st.CPU - p.cpu; d > 0 {
			consumed += d
		}
		p.cpu = st.CPU
		alive = true
		reads++
		if st.State == 'R' {
			width++
		}
		if !st.Blocked() {
			sawRunning = true
		}
	})
	if !alive {
		return core.Progress{}, false
	}
	return core.Progress{Consumed: consumed, Blocked: reads > 0 && !sawRunning, Width: min(width, r.cpus)}, true
}

// sigResult is the outcome of one raw signal delivery, produced by
// deliverOp (possibly on a pool worker) and consumed by applySignal
// on the loop goroutine.
type sigResult struct {
	pid  int
	stop bool
	ok   bool  // delivered
	gone bool  // ESRCH: process vanished
	err  error // terminal error when !ok
}

// applySignal settles one delivery's bookkeeping on the loop goroutine:
// a delivered signal is recorded; ESRCH drops the PID immediately; any
// other failure counts a strike, and a PID that keeps refusing
// signals for maxBadPIDStrikes consecutive deliveries is dropped so the
// remaining workload's guarantees survive. Reports whether the signal
// was delivered.
func (r *Runner) applySignal(res sigResult) bool {
	p := r.procs[res.pid]
	if p == nil {
		return false // dropped by an earlier delivery of the same batch
	}
	name := sigName(res.stop)
	if res.ok {
		p.badSig = 0
		p.stopped = res.stop
		return true
	}
	if res.gone {
		r.health.vanished.Add(1)
		r.errf("%s pid %d: %v (vanished)", name, res.pid, res.err)
		r.forget(res.pid)
		return false
	}
	r.health.sigFailures.Add(1)
	p.badSig++
	// The delivery failed with the PID still present, so its suspension
	// state may now disagree with its task's eligibility.
	r.needReconcile = true
	if p.badSig >= maxBadPIDStrikes {
		r.health.unsignalable.Add(1)
		r.errf("%s pid %d: %v (unsignalable after %d failed deliveries; dropping)", name, res.pid, res.err, p.badSig)
		r.forget(res.pid)
	} else {
		r.errf("%s pid %d: %v", name, res.pid, res.err)
	}
	return false
}

// signal is the sequential deliver-then-apply pair, used by the per-PID
// fallback of a failed group op.
func (r *Runner) signal(pid int, stop bool) bool {
	return r.applySignal(r.deliverOp(sigOp{pid: pid, stop: stop}))
}

// refresh installs new task memberships, visiting tasks in ID order.
// Every PID listed for a task joins it (join baselines a new PID before
// it can ever be measured, and moves a member of another task, so a PID
// listed for two tasks ends up in the higher ID, which is logged); every
// member a listed task no longer names leaves. Memberships for tasks the
// runner does not know are ignored and counted in RefreshErrors; tasks
// absent from the map keep their membership.
func (r *Runner) refresh(want map[core.TaskID][]int) {
	ids := make([]core.TaskID, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	named := make(map[int]core.TaskID)
	known := ids[:0]
	for _, id := range ids {
		if r.tasks[id] == nil {
			// Task unknown to the scheduler (died mid-run, or the
			// Refresh callback reported an ID that was never
			// registered): its membership has no share to bill to.
			r.health.refreshErrors.Add(1)
			r.errf("refresh: ignoring membership for unknown task %d", id)
			continue
		}
		known = append(known, id)
		for _, pid := range want[id] {
			if prev, dup := named[pid]; dup && prev != id {
				r.errf("refresh: pid %d is listed for tasks %d and %d; it joins task %d", pid, prev, id, id)
			}
			named[pid] = id
			_ = r.join(id, pid, 0)
		}
	}
	for _, id := range known {
		r.eachMember(r.tasks[id], func(pid int, _ *proc) {
			if _, listed := named[pid]; !listed {
				r.leave(pid)
			}
		})
	}
	// Membership moved under the scheduler; make the next quantum verify
	// the whole suspension/eligibility correspondence.
	r.needReconcile = true
}

// resume sends pid SIGCONT for Release and leave. ESRCH (the process
// died while suspended, so it can no longer be frozen) is not an error.
func (r *Runner) resume(pid int) {
	if err := r.sys.Cont(pid); err != nil && classify(err) != errGone {
		r.errf("resume pid %d: %v", pid, err)
	}
}

// Release resumes every process the runner has suspended and releases
// every read handle (a Step after Release reopens them). It is called
// automatically when Run returns (and when a panic unwinds out of Step);
// call it directly if using Step. Idempotent and safe from any
// goroutine.
func (r *Runner) Release() {
	r.loopMu.Lock()
	defer r.loopMu.Unlock()
	r.releaseLocked()
}

// releaseLocked is Release's body, for callers already holding loopMu
// (notably Step's panic path, which would deadlock calling Release).
func (r *Runner) releaseLocked() {
	for pid, p := range r.procs {
		if p.stopped {
			r.resume(pid)
			p.stopped = false
		}
		r.sys.Forget(pid)
	}
}

func (r *Runner) errf(format string, args ...any) {
	if r.cfg.OnError != nil {
		r.cfg.OnError(fmt.Errorf("osproc: "+format, args...))
	}
}
