package osproc

import (
	"runtime"
	"time"
)

// Sys is the operating-system surface the Runner depends on: reading a
// process's accounting state and delivering the two job-control signals.
// The production implementation (RealSys) forwards to /proc and kill(2);
// FaultSys is a scriptable fake that injects the failure modes a live
// system exhibits — vanished PIDs, PID reuse, EPERM, /proc read races,
// slow reads — so every failure path in the control loop is unit-testable
// without spawning a single process.
type Sys interface {
	// ReadStat returns the accounting snapshot for pid
	// (/proc/<pid>/stat on Linux). An implementation may hold a handle
	// per PID between calls; Forget releases it.
	ReadStat(pid int) (Stat, error)
	// Forget releases whatever ReadStat holds for pid. The Runner calls
	// it on every path that stops tracking a PID, and for every PID on
	// Release.
	Forget(pid int)
	// Stop suspends pid (SIGSTOP).
	Stop(pid int) error
	// Cont resumes pid (SIGCONT).
	Cont(pid int) error
	// StopGroup suspends every member of process group pgid with one
	// kill(-pgid, SIGSTOP). POSIX aggregate semantics: success means at
	// least one member was signalled; ESRCH means no member exists;
	// EPERM means members exist but none could be signalled.
	StopGroup(pgid int) error
	// ContGroup resumes every member of process group pgid
	// (kill(-pgid, SIGCONT)), with the same aggregate semantics.
	ContGroup(pgid int) error
	// Pgid returns pid's process-group ID (getpgid(2)); the runner uses
	// it to verify a claimed group before trusting one-syscall group
	// signalling.
	Pgid(pid int) (int, error)
	// Now is the Runner's only clock: quantum lateness, work accounting
	// and event timestamps all read it, so a fake and the runner can
	// never disagree about the time.
	Now() time.Time
	// CPUs is how many CPUs the workload can run on at once: the cap on
	// a task's drain width, which §2.3 postpones its next read by. The
	// Runner reads it once, when it is built.
	CPUs() int
}

// RealSys is the production Sys over /proc and kill(2).
type RealSys struct{}

// ReadStat reads /proc/<pid>/stat through the package's descriptor table
// (see statFDs), leaving Comm empty. A multi-threaded process whose leader
// sleeps is reported running ('R') when any other thread is running, so
// the §2.4 blocked vote judges the process, not its leader thread.
func (RealSys) ReadStat(pid int) (Stat, error) {
	st, threads, err := readStatFD(pid)
	if err == nil && threads > 1 && st.Blocked() && anyThreadRunning(pid) {
		st.State = 'R'
	}
	return st, err
}

// Forget closes pid's stat descriptor.
func (RealSys) Forget(pid int) { forgetStatFD(pid) }

// Stop sends SIGSTOP.
func (RealSys) Stop(pid int) error { return Stop(pid) }

// Cont sends SIGCONT.
func (RealSys) Cont(pid int) error { return Cont(pid) }

// StopGroup sends SIGSTOP to the whole process group.
func (RealSys) StopGroup(pgid int) error { return StopGroup(pgid) }

// ContGroup sends SIGCONT to the whole process group.
func (RealSys) ContGroup(pgid int) error { return ContGroup(pgid) }

// Pgid is getpgid(2).
func (RealSys) Pgid(pid int) (int, error) { return Pgid(pid) }

// Now is time.Now.
func (RealSys) Now() time.Time { return time.Now() }

// CPUs is runtime.NumCPU: the CPUs this process may run on.
func (RealSys) CPUs() int { return runtime.NumCPU() }
