// Package osproc is the real-operating-system substrate for ALPS: it
// drives the internal/core algorithm over actual processes using only
// unprivileged POSIX facilities, the production counterpart of the
// paper's FreeBSD implementation.
//
//   - CPU consumption and run state come from /proc/<pid>/stat (utime +
//     stime in USER_HZ ticks, and the single-letter state field — the
//     Linux analogue of getrusage plus the kernel "wait channel" the
//     paper reads). The 10 ms tick granularity matches what the paper's
//     accounting exposes.
//   - Eligibility transitions are enacted with SIGSTOP and SIGCONT via
//     kill(2).
//   - Per-user process enumeration (for §5-style resource principals)
//     scans /proc, the analogue of kvm_getprocs.
//
// Everything here requires a Linux /proc; the simulator in internal/sim
// provides the same interfaces for deterministic experiments.
package osproc

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unicode"
	"unicode/utf8"
)

// ClockTick is the /proc accounting granularity (USER_HZ is 100 on all
// mainstream Linux configurations).
const ClockTick = 10 * time.Millisecond

// procRoot is the procfs mount point; tests point it at a fixture tree.
var procRoot = "/proc"

// Stat is the subset of /proc/<pid>/stat that ALPS needs.
type Stat struct {
	PID int
	// Comm is the executable name (without parentheses).
	Comm string
	// State is the kernel run state: 'R' running/runnable, 'S'
	// interruptible sleep, 'D' uninterruptible sleep, 'T' stopped,
	// 'Z' zombie, and friends.
	State byte
	// PPID is the parent process ID (for lineage tracking).
	PPID int
	// CPU is utime+stime converted to a duration (ClockTick units).
	CPU time.Duration
	// Start is the process start time (field 22, clock ticks since
	// boot). It uniquely identifies a process incarnation: if a PID's
	// start time changes, the kernel has recycled the PID for an
	// unrelated process, and any accounting baseline held for the old
	// incarnation is invalid.
	Start uint64
}

// Blocked reports whether the state indicates the process is waiting on
// an event — the condition the paper detects via the wait-channel field
// (§2.4). A stopped process is not "blocked" in this sense: ALPS itself
// put it there.
func (s Stat) Blocked() bool { return s.State == 'S' || s.State == 'D' }

// ReadStat parses /proc/<pid>/stat.
func ReadStat(pid int) (Stat, error) {
	raw, err := os.ReadFile(fmt.Sprintf("%s/%d/stat", procRoot, pid))
	if err != nil {
		return Stat{}, err
	}
	return parseStat(pid, string(raw))
}

// parseStat handles the comm field's embedded spaces/parentheses by
// anchoring on the last ')'.
func parseStat(pid int, raw string) (Stat, error) {
	close := strings.LastIndexByte(raw, ')')
	open := strings.IndexByte(raw, '(')
	if close < 0 || open < 0 || close < open {
		return Stat{}, fmt.Errorf("osproc: malformed stat for pid %d", pid)
	}
	st := Stat{PID: pid, Comm: raw[open+1 : close]}
	rest := strings.Fields(raw[close+1:])
	// rest[0] is field 3 (state), rest[1] field 4 (ppid); utime and
	// stime are fields 14 and 15, i.e. rest[11] and rest[12].
	if len(rest) < 13 || len(rest[0]) == 0 {
		return Stat{}, fmt.Errorf("osproc: short stat for pid %d", pid)
	}
	st.State = rest[0][0]
	ppid, err := strconv.Atoi(rest[1])
	if err != nil {
		return Stat{}, fmt.Errorf("osproc: bad ppid for pid %d: %w", pid, err)
	}
	st.PPID = ppid
	ut, err := strconv.ParseUint(rest[11], 10, 64)
	if err != nil {
		return Stat{}, fmt.Errorf("osproc: bad utime for pid %d: %w", pid, err)
	}
	stt, err := strconv.ParseUint(rest[12], 10, 64)
	if err != nil {
		return Stat{}, fmt.Errorf("osproc: bad stime for pid %d: %w", pid, err)
	}
	st.CPU = time.Duration(ut+stt) * ClockTick
	// starttime is field 22 (rest[19]); real kernels always emit ≥ 44
	// fields, but tolerate short fixture lines by leaving Start zero.
	if len(rest) >= 20 {
		start, err := strconv.ParseUint(rest[19], 10, 64)
		if err != nil {
			return Stat{}, fmt.Errorf("osproc: bad starttime for pid %d: %w", pid, err)
		}
		st.Start = start
	}
	return st, nil
}

// errBadStat reports a stat line parseStatBytes cannot parse. It is a
// sentinel so the sampling path allocates nothing, even on failure.
var errBadStat = errors.New("osproc: malformed /proc stat line")

// parseStatBytes is parseStat over a raw buffer without building strings:
// it fills State, PPID, CPU and Start (Comm stays empty) and also returns
// num_threads (field 20; 0 when absent or unparsable). It accepts and
// rejects exactly the inputs parseStat does (FuzzParseStatBytes holds the
// two to that), including splitting fields on Unicode white space as
// strings.Fields does.
func parseStatBytes(pid int, raw []byte) (st Stat, threads int, err error) {
	close := bytes.LastIndexByte(raw, ')')
	open := bytes.IndexByte(raw, '(')
	if close < 0 || open < 0 || close < open {
		return Stat{}, 0, errBadStat
	}
	st.PID = pid
	var ut, stt uint64
	i, n := close+1, 0
	for ; n < 20; n++ {
		var f []byte
		if f, i = nextField(raw, i); len(f) == 0 {
			break
		}
		// f is field n+3 of proc(5); fields are numbered from 1.
		ok := true
		switch n {
		case 0:
			st.State = f[0]
		case 1:
			st.PPID, ok = atoiBytes(f)
		case 11:
			ut, ok = parseUintBytes(f)
		case 12:
			stt, ok = parseUintBytes(f)
		case 17:
			threads, _ = atoiBytes(f)
		case 19:
			st.Start, ok = parseUintBytes(f)
		}
		if !ok {
			return Stat{}, 0, errBadStat
		}
	}
	if n < 13 {
		return Stat{}, 0, errBadStat
	}
	st.CPU = time.Duration(ut+stt) * ClockTick
	return st, threads, nil
}

// nextField returns the first field of b at or after i and the index just
// past it; the field is empty when none remains. Separators are what
// strings.Fields splits on: runs of unicode.IsSpace runes, with invalid
// UTF-8 counted as a one-byte non-space.
func nextField(b []byte, i int) (field []byte, next int) {
	for i < len(b) {
		w, space := spaceAt(b, i)
		if !space {
			break
		}
		i += w
	}
	start := i
	for i < len(b) {
		w, space := spaceAt(b, i)
		if space {
			break
		}
		i += w
	}
	return b[start:i], i
}

func spaceAt(b []byte, i int) (width int, space bool) {
	if c := b[i]; c < utf8.RuneSelf {
		return 1, c == ' ' || c-'\t' <= '\r'-'\t'
	}
	r, w := utf8.DecodeRune(b[i:])
	return w, unicode.IsSpace(r)
}

// parseUintBytes is strconv.ParseUint(string(b), 10, 64) without the
// string: decimal digits only, failing on overflow.
func parseUintBytes(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		d := uint64(c - '0')
		if d > 9 || n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// atoiBytes is strconv.Atoi(string(b)) without the string: an optional
// sign, then decimal digits, failing outside int's range.
func atoiBytes(b []byte) (int, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if len(b) > 0 && (neg || b[0] == '+') {
		b = b[1:]
	}
	u, ok := parseUintBytes(b)
	limit := uint64(1)<<(strconv.IntSize-1) - 1
	if neg {
		limit++
	}
	if !ok || u > limit {
		return 0, false
	}
	if neg {
		return -int(u), true
	}
	return int(u), true
}

// Descendants returns root plus every live process whose ancestry chain
// leads to root, by scanning /proc ppids — the mechanism that lets ALPS
// follow a prefork server like Apache as it grows and shrinks its worker
// pool (§5 of the paper tracks processes by user; this tracks them by
// lineage, useful when the workload doesn't run as its own user). Each
// stat is read uncached (open, pread, close), so a scan of every host
// process never touches the sampling descriptor table.
func Descendants(root int) ([]int, error) {
	entries, err := os.ReadDir(procRoot)
	if err != nil {
		return nil, err
	}
	parent := make(map[int]int)
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		st, _, err := readStatUncached(pid)
		if err != nil || st.State == 'Z' {
			continue
		}
		parent[pid] = st.PPID
	}
	var out []int
	for pid := range parent {
		p := pid
		for depth := 0; depth < 128; depth++ {
			if p == root {
				out = append(out, pid)
				break
			}
			next, ok := parent[p]
			if !ok || next == p {
				break
			}
			p = next
		}
	}
	slices.Sort(out)
	return out, nil
}

// Stop suspends a process (SIGSTOP cannot be caught or ignored).
func Stop(pid int) error { return syscall.Kill(pid, syscall.SIGSTOP) }

// Cont resumes a stopped process.
func Cont(pid int) error { return syscall.Kill(pid, syscall.SIGCONT) }

// StopGroup suspends an entire process group with a single syscall:
// kill(2) with a negative PID signals every member of the group. The
// call succeeds if at least one member was signalled.
func StopGroup(pgid int) error { return syscall.Kill(-pgid, syscall.SIGSTOP) }

// ContGroup resumes an entire process group with a single syscall.
func ContGroup(pgid int) error { return syscall.Kill(-pgid, syscall.SIGCONT) }

// Pgid returns the process-group ID of pid (getpgid(2)).
func Pgid(pid int) (int, error) { return syscall.Getpgid(pid) }

// PidsOfUser returns the live PIDs owned by uid, by scanning /proc — the
// Linux analogue of the kvm_getprocs call the paper's §5 ALPS uses to
// refresh a resource principal's membership once per second.
func PidsOfUser(uid uint32) ([]int, error) {
	entries, err := os.ReadDir(procRoot)
	if err != nil {
		return nil, err
	}
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		sys, ok := info.Sys().(*syscall.Stat_t)
		if !ok || sys.Uid != uid {
			continue
		}
		pids = append(pids, pid)
	}
	return pids, nil
}
