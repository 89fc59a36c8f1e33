package osproc

import (
	"errors"
	"os"
	"syscall"
)

// errClass partitions the errors the OS surface can return into the three
// recovery strategies the control loop knows (the taxonomy production
// resource managers converge on: partial failure is the common case, and
// the response must be decided per class, not per call site).
type errClass int

const (
	// errTransient: an immediate retry may succeed (EINTR, EAGAIN,
	// unrecognized errors). A /proc read is retried at once; on
	// exhaustion it is skipped for this quantum — cumulative /proc
	// counters mean no consumption is lost, it is charged at the next
	// successful read. A signal is never retried: kill(2) has no
	// transient failure, so any error but ESRCH counts a strike.
	errTransient errClass = iota
	// errGone: the process no longer exists (ESRCH, ENOENT from a
	// vanished /proc entry). Permanent: the PID is dropped immediately.
	errGone
	// errDenied: the process exists but refuses us (EPERM — e.g. a
	// setuid exec changed its credentials). Hammering within a quantum
	// is pointless; after a few consecutive failing quanta the PID is
	// declared unsignalable and dropped so the rest of the workload
	// keeps its guarantees.
	errDenied
)

// classify maps an error from the Sys surface to its recovery class.
// Unknown errors are treated as transient: retrying a permanent error is
// wasted work bounded by the retry cap, while dropping a PID on a
// transient error breaks a share guarantee permanently.
func classify(err error) errClass {
	var errno syscall.Errno
	if errors.As(err, &errno) {
		switch errno {
		case syscall.ESRCH, syscall.ENOENT:
			return errGone
		case syscall.EPERM, syscall.EACCES:
			return errDenied
		case syscall.EINTR, syscall.EAGAIN:
			return errTransient
		}
	}
	if errors.Is(err, os.ErrNotExist) {
		return errGone
	}
	return errTransient
}

// ErrNoLiveProcess is returned by NewRunner when every requested target
// PID is already gone: there is nothing to schedule, and silently running
// an empty control loop would look like success to the operator.
var ErrNoLiveProcess = errors.New("osproc: no live target process (all target PIDs exited before scheduling began)")
