package osproc

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

// FaultCall selects which Sys operation a scheduled fault applies to.
type FaultCall int

const (
	// CallRead targets Sys.ReadStat.
	CallRead FaultCall = iota
	// CallStop targets Sys.Stop.
	CallStop
	// CallCont targets Sys.Cont.
	CallCont
)

// FaultKind is one injectable failure mode of the OS surface.
type FaultKind int

const (
	// FaultESRCH fails the call with syscall.ESRCH (process gone).
	FaultESRCH FaultKind = iota
	// FaultEPERM fails the call with syscall.EPERM (unsignalable).
	FaultEPERM
	// FaultEINTR fails a read with syscall.EINTR: the fake's stand-in
	// for a read error the runner cannot classify as gone or denied,
	// which keeps the PID and skips it for one quantum. kill(2) never
	// returns EINTR for SIGSTOP or SIGCONT, so Inject refuses it on
	// CallStop and CallCont.
	FaultEINTR
	// FaultZombie makes ReadStat report state 'Z' (exited, unreaped).
	FaultZombie
	// FaultSlow makes the call succeed only after advancing the fake
	// clock by SlowDelay, modelling a stalled /proc read or signal
	// delivery that eats into (or overruns) the quantum.
	FaultSlow
)

type faultKey struct {
	pid  int
	call FaultCall
}

// FaultProc is one simulated process in a FaultSys table.
type FaultProc struct {
	PID int
	// PGID is the process-group ID; zero means the process leads its own
	// group (pgid == PID), matching a plain fork without setpgid.
	PGID int
	// State is the run state reported while not stopped: 'R', 'S', 'D'
	// or 'Z'.
	State byte
	// CPU is cumulative consumption, advanced by FaultSys.Advance.
	CPU time.Duration
	// Start is the start-time incarnation stamp (cf. Stat.Start).
	Start uint64
	// Rate is the fraction of virtual time the process consumes while
	// in state 'R' and not stopped (1.0 = a busy loop).
	Rate float64

	stopped bool
}

// FaultSys is a deterministic, scriptable fake of the Sys surface: an
// in-memory process table plus a virtual clock and per-(pid, call) FIFO
// fault schedules. It lets tests drive the Runner through ESRCH, EPERM,
// /proc read races, zombies, slow reads, PID reuse, and timer overruns —
// with no real child processes, in microseconds, reproducibly.
//
// Every method locks one mutex, so the runner's sampler and signal pool
// may call it concurrently; tests drive Step, Advance and the fault
// schedule from one goroutine.
type FaultSys struct {
	// mu makes the fake safe under the runner's sampler/signal worker
	// pools: every public method locks it, so concurrent Sys calls
	// serialize here exactly like the kernel serializes /proc and
	// kill(2). Fault schedules stay per-(pid, call) FIFOs, so per-PID
	// outcomes are deterministic regardless of worker interleaving.
	mu      sync.Mutex
	base    time.Time
	elapsed time.Duration

	procs  map[int]*FaultProc
	faults map[faultKey][]FaultKind
	// handles models RealSys's descriptor table: a read of a live PID
	// opens its handle, ESRCH closes it, and Forget releases it.
	handles map[int]bool

	// SlowDelay is how far FaultSlow advances the clock (default 0:
	// set it before scheduling FaultSlow).
	SlowDelay time.Duration

	// Log records every operation in order ("stop 42", "read 42:
	// EINTR", ...), for asserting on the exact recovery sequence.
	Log []string

	// Quiet suppresses Log recording. The scale benchmark drives
	// thousands of PIDs through millions of operations; formatting a log
	// line per call would dominate the measured loop time.
	Quiet bool

	// SharedCPU models a single-CPU machine: Advance splits the elapsed
	// interval equally among the runnable (state 'R', unstopped)
	// processes instead of crediting each one the full interval (the
	// default, which behaves like one CPU per process). Rate is ignored
	// in this mode. Cycle lengths and §2.3 due-set sizes only match the
	// paper's uniprocessor setting when the machine delivers one quantum
	// of CPU per quantum of wall time, so the scale benchmark sets this.
	SharedCPU bool

	// NCPU is what CPUs reports: the cap on a task's drain width. 0
	// means 1, so a Runner over the fake keeps the paper's uniprocessor
	// §2.3 rule unless a test asks for more. Advance does not read it.
	NCPU int

	// sigCalls counts signal syscalls (Stop, Cont, StopGroup, ContGroup
	// — one each, regardless of group size). The group-signaling test
	// asserts one per eligibility flip from it.
	sigCalls int64

	rng    *rand.Rand
	chaosP float64
}

// SignalSyscalls returns the number of signal syscalls issued so far:
// each Stop/Cont/StopGroup/ContGroup call counts once, because each is
// exactly one kill(2) on a real kernel.
func (f *FaultSys) SignalSyscalls() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sigCalls
}

// NewFaultSys creates an empty fault-injecting fake. The virtual clock
// starts at an arbitrary fixed epoch.
func NewFaultSys() *FaultSys {
	return &FaultSys{
		base:    time.Unix(1_000_000_000, 0),
		procs:   make(map[int]*FaultProc),
		faults:  make(map[faultKey][]FaultKind),
		handles: make(map[int]bool),
	}
}

// AddProc installs a process. Zero-value State means 'R'; zero Rate with
// state 'R' defaults to 1.0 (busy loop).
func (f *FaultSys) AddProc(p FaultProc) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p.State == 0 {
		p.State = 'R'
	}
	if p.Rate == 0 && p.State == 'R' {
		p.Rate = 1.0
	}
	cp := p
	f.procs[p.PID] = &cp
}

// Kill removes a process: subsequent operations on the PID fail ESRCH.
func (f *FaultSys) Kill(pid int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.procs, pid)
}

// Reuse replaces a PID with a fresh incarnation: a new start-time stamp
// and zeroed CPU, running and unsuspended — the kernel recycled the PID
// for an unrelated process, which is not in the old incarnation's
// process group. An absent PID gains the incarnation.
func (f *FaultSys) Reuse(pid int, start uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.procs[pid] = &FaultProc{PID: pid, Start: start, State: 'R', Rate: 1.0}
}

// SetState changes the run state a process reports while not stopped.
func (f *FaultSys) SetState(pid int, state byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p, ok := f.procs[pid]; ok {
		p.State = state
	}
}

// Inject queues faults for the given pid and call; each matching call
// consumes one fault in FIFO order, then the call proceeds normally.
// A negative pid targets the group syscall itself: Inject(-pgid,
// CallStop, FaultEPERM) makes the next StopGroup(pgid) fail EPERM as a
// whole. Positive-pid ESRCH/EPERM schedules are also consumed by group
// calls covering that member, modelling partial group delivery (the
// member exited mid-kill, or is unsignalable). Inject panics on
// FaultEINTR for a signal call, a failure kill(2) never returns.
func (f *FaultSys) Inject(pid int, call FaultCall, kinds ...FaultKind) {
	if call != CallRead && slices.Contains(kinds, FaultEINTR) {
		panic(fmt.Sprintf("faultsys: kill(2) never fails with EINTR (pid %d)", pid))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	k := faultKey{pid, call}
	f.faults[k] = append(f.faults[k], kinds...)
}

// Chaos enables seeded random transient faults: each /proc read
// independently fails with EINTR with probability p. Signals are left
// alone, since kill(2) has no transient failure. Deterministic for a
// given seed and call sequence.
func (f *FaultSys) Chaos(seed int64, p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rng = rand.New(rand.NewSource(seed))
	f.chaosP = p
}

// Advance moves the virtual clock forward, accruing CPU to every
// running, unsuspended process at its Rate.
func (f *FaultSys) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.elapsed += d
	if f.SharedCPU {
		var run []*FaultProc
		for _, p := range f.procs {
			if !p.stopped && p.State == 'R' {
				run = append(run, p)
			}
		}
		if len(run) == 0 {
			return
		}
		each := d / time.Duration(len(run))
		for _, p := range run {
			p.CPU += each
		}
		return
	}
	for _, pid := range f.pids() {
		p := f.procs[pid]
		if !p.stopped && p.State == 'R' {
			p.CPU += time.Duration(float64(d) * p.Rate)
		}
	}
}

// Now returns the virtual wall-clock time. A Runner over the fake reads
// its clock here, so slow reads and sleeps surface as quantum lateness.
func (f *FaultSys) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.base.Add(f.elapsed)
}

// CPUs implements Sys: the NCPU field, with 0 meaning 1.
func (f *FaultSys) CPUs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return max(f.NCPU, 1)
}

// IsStopped reports whether the process is currently SIGSTOPped.
func (f *FaultSys) IsStopped(pid int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.procs[pid]
	return ok && p.stopped
}

// StoppedPIDs returns the currently suspended PIDs in ascending order —
// the assertion surface for the "never leave the workload frozen"
// invariant.
func (f *FaultSys) StoppedPIDs() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []int
	for pid, p := range f.procs {
		if p.stopped {
			out = append(out, pid)
		}
	}
	sort.Ints(out)
	return out
}

// Proc returns the table entry for a PID, or nil.
func (f *FaultSys) Proc(pid int) *FaultProc {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.procs[pid]
}

func (f *FaultSys) pids() []int {
	out := make([]int, 0, len(f.procs))
	for pid := range f.procs {
		out = append(out, pid)
	}
	sort.Ints(out)
	return out
}

// pop consumes the next scheduled fault for (pid, call). Chaos mode may
// substitute a transient fault for a read when no fault is scheduled.
func (f *FaultSys) pop(pid int, call FaultCall) (FaultKind, bool) {
	k := faultKey{pid, call}
	if q := f.faults[k]; len(q) > 0 {
		f.faults[k] = q[1:]
		return q[0], true
	}
	if call == CallRead && f.rng != nil && f.rng.Float64() < f.chaosP {
		return FaultEINTR, true
	}
	return 0, false
}

func (f *FaultSys) logf(format string, args ...any) {
	if f.Quiet {
		return
	}
	f.Log = append(f.Log, fmt.Sprintf(format, args...))
}

// Hot-path call sites guard logf with !f.Quiet themselves: the variadic
// args are boxed into an interface slice at the call site, before logf's
// own Quiet check can skip them, and the zero-allocation test
// (TestSteadyStateZeroAllocs) covers those paths.

// ReadStat implements Sys over the fault table.
func (f *FaultSys) ReadStat(pid int) (Stat, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if kind, ok := f.pop(pid, CallRead); ok {
		switch kind {
		case FaultESRCH:
			f.logf("read %d: ESRCH", pid)
			delete(f.handles, pid)
			return Stat{}, syscall.ESRCH
		case FaultEPERM:
			f.logf("read %d: EPERM", pid)
			return Stat{}, syscall.EPERM
		case FaultEINTR:
			f.logf("read %d: EINTR", pid)
			return Stat{}, syscall.EINTR
		case FaultZombie:
			f.logf("read %d: zombie", pid)
			f.handles[pid] = true
			return Stat{PID: pid, Comm: "fake", State: 'Z'}, nil
		case FaultSlow:
			f.logf("read %d: slow %v", pid, f.SlowDelay)
			f.elapsed += f.SlowDelay
		}
	}
	p, ok := f.procs[pid]
	if !ok {
		f.logf("read %d: gone", pid)
		delete(f.handles, pid)
		return Stat{}, syscall.ESRCH
	}
	if !f.Quiet {
		f.logf("read %d", pid)
	}
	f.handles[pid] = true
	state := p.State
	if p.stopped {
		state = 'T'
	}
	return Stat{PID: pid, Comm: "fake", State: state, CPU: p.CPU, Start: p.Start}, nil
}

// Forget implements Sys: it releases pid's read handle.
func (f *FaultSys) Forget(pid int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.handles, pid)
}

// OpenHandles returns, in ascending order, the PIDs whose read handle is
// open: read at least once and neither forgotten nor found gone since.
func (f *FaultSys) OpenHandles() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int, 0, len(f.handles))
	for pid := range f.handles {
		out = append(out, pid)
	}
	sort.Ints(out)
	return out
}

// Stop implements Sys.
func (f *FaultSys) Stop(pid int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sigCalls++
	if kind, ok := f.pop(pid, CallStop); ok {
		if err := sigErr(kind); err != nil {
			f.logf("stop %d: %v", pid, err)
			return err
		}
	}
	p, ok := f.procs[pid]
	if !ok || p.State == 'Z' {
		f.logf("stop %d: gone", pid)
		return syscall.ESRCH
	}
	if !f.Quiet {
		f.logf("stop %d", pid)
	}
	p.stopped = true
	return nil
}

// Cont implements Sys.
func (f *FaultSys) Cont(pid int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sigCalls++
	if kind, ok := f.pop(pid, CallCont); ok {
		if err := sigErr(kind); err != nil {
			f.logf("cont %d: %v", pid, err)
			return err
		}
	}
	p, ok := f.procs[pid]
	if !ok || p.State == 'Z' {
		f.logf("cont %d: gone", pid)
		return syscall.ESRCH
	}
	if !f.Quiet {
		f.logf("cont %d", pid)
	}
	p.stopped = false
	return nil
}

// pgidOf returns a table entry's effective process-group ID (its own
// PID when PGID is unset).
func pgidOf(p *FaultProc) int {
	if p.PGID != 0 {
		return p.PGID
	}
	return p.PID
}

// popMember consumes the head of a member's fault queue during a group
// call — but only if it is ESRCH or EPERM, the two per-member outcomes a
// real kill(-pgid) can have (a member exiting mid-sweep, a member with
// changed credentials). Other kinds stay queued for direct per-PID calls.
func (f *FaultSys) popMember(pid int, call FaultCall) (FaultKind, bool) {
	k := faultKey{pid, call}
	if q := f.faults[k]; len(q) > 0 && (q[0] == FaultESRCH || q[0] == FaultEPERM) {
		f.faults[k] = q[1:]
		return q[0], true
	}
	return 0, false
}

// groupSignal is the shared body of StopGroup and ContGroup: one
// syscall, POSIX aggregate result. Group-level faults are scheduled
// against the negated pgid; per-member ESRCH/EPERM schedules carve
// individual members out of the sweep so tests can script partial
// delivery.
func (f *FaultSys) groupSignal(pgid int, call FaultCall, stop bool, name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sigCalls++
	if kind, ok := f.pop(-pgid, call); ok {
		if err := sigErr(kind); err != nil {
			f.logf("%s %d: %v", name, pgid, err)
			return err
		}
	}
	exists, signalled := 0, 0
	for _, pid := range f.pids() {
		p := f.procs[pid]
		if pgidOf(p) != pgid || p.State == 'Z' {
			continue
		}
		if kind, ok := f.popMember(pid, call); ok {
			if kind == FaultESRCH {
				f.logf("%s %d: member %d ESRCH", name, pgid, pid)
				continue // exited mid-kill: does not exist for this sweep
			}
			f.logf("%s %d: member %d EPERM", name, pgid, pid)
			exists++ // exists but silently unsignalled
			continue
		}
		exists++
		signalled++
		p.stopped = stop
	}
	switch {
	case signalled > 0:
		if !f.Quiet {
			f.logf("%s %d (%d of %d)", name, pgid, signalled, exists)
		}
		return nil
	case exists == 0:
		f.logf("%s %d: ESRCH", name, pgid)
		return syscall.ESRCH
	default:
		f.logf("%s %d: EPERM", name, pgid)
		return syscall.EPERM
	}
}

// StopGroup implements Sys over the fault table.
func (f *FaultSys) StopGroup(pgid int) error {
	return f.groupSignal(pgid, CallStop, true, "stopg")
}

// ContGroup implements Sys over the fault table.
func (f *FaultSys) ContGroup(pgid int) error {
	return f.groupSignal(pgid, CallCont, false, "contg")
}

// Pgid implements Sys.
func (f *FaultSys) Pgid(pid int) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.procs[pid]
	if !ok {
		return 0, syscall.ESRCH
	}
	return pgidOf(p), nil
}

// sigErr maps a fault kind to the error a signal call returns. FaultSlow
// has no clock to advance for signals in the fake (kill(2) does not
// block); it degrades to success.
func sigErr(kind FaultKind) error {
	switch kind {
	case FaultESRCH:
		return syscall.ESRCH
	case FaultEPERM:
		return syscall.EPERM
	}
	return nil
}
