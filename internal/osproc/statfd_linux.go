package osproc

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"sync"
	"syscall"
	"unsafe"
)

// Sampling. RealSys.ReadStat is the control loop's measurement, and one
// quantum may take hundreds of them, so it reads through a table of
// /proc/<pid>/stat descriptors opened once per sampled PID: a steady-state
// sample is one pread into a stack buffer, parsed in place, with no
// allocation. A held procfs descriptor is pinned to the task it was opened
// for: once that task is gone, pread fails ESRCH even if the kernel has
// handed the PID to a new process, so the entry is closed and the PID is
// reported gone. The table is package-level, so the zero RealSys is fast
// too; Sys.Forget closes an entry when the Runner drops its PID.
//
// Lock rule: a pread holds the read side of statFDs for as long as it uses
// a descriptor, and closing one takes the write side, so a descriptor
// number is never read after close (when the kernel may already have
// reused it for an unrelated file).
var statFDs = struct {
	sync.RWMutex
	m map[int]int // pid -> open O_RDONLY descriptor on /proc/<pid>/stat
	// max caps len(m), leaving the rest of the process's descriptor limit
	// to everything else; 0 until the first open computes it.
	max int
}{m: make(map[int]int)}

const (
	// statBufLen holds a whole stat line: 52 fields of at most 20 digits
	// after a comm of at most 64 bytes fit in 1.2 KB, and the parser only
	// needs the first 22 fields anyway.
	statBufLen = 1024
	// pathBufLen holds /proc/<pid>/task/<tid>/stat and a NUL without
	// allocating; a longer procRoot (test fixtures) spills to the heap.
	pathBufLen = 128
)

// atFDCWD is openat(2)'s "relative to the working directory" dirfd.
const atFDCWD = -100

// readStatFD is the cached sampling read: state, ppid, CPU, start time and
// num_threads of pid through its table descriptor, opening one on first
// use. A read that finds the table full, or the process out of
// descriptors (EMFILE, ENFILE), falls back to an uncached open, pread and
// close.
func readStatFD(pid int) (Stat, int, error) {
	statFDs.RLock()
	fd, ok := statFDs.m[pid]
	if ok {
		st, threads, err := preadStat(pid, fd)
		statFDs.RUnlock()
		if err == syscall.ESRCH {
			forgetStatFD(pid)
		}
		return st, threads, err
	}
	statFDs.RUnlock()

	var pb [pathBufLen]byte
	fd, err := openNUL(atFDCWD, procPath(pb[:0], pid, "/stat"), syscall.O_RDONLY)
	if err == syscall.EMFILE || err == syscall.ENFILE {
		return readStatUncached(pid)
	}
	if err != nil {
		return Stat{}, 0, err
	}
	statFDs.Lock()
	defer statFDs.Unlock()
	if statFDs.max == 0 {
		statFDs.max = statFDBudget()
	}
	if old, ok := statFDs.m[pid]; ok {
		// A concurrent reader opened it first.
		syscall.Close(fd)
		fd = old
	} else if len(statFDs.m) >= statFDs.max {
		defer syscall.Close(fd)
		return preadStat(pid, fd)
	} else {
		statFDs.m[pid] = fd
	}
	st, threads, err := preadStat(pid, fd)
	if err == syscall.ESRCH {
		delete(statFDs.m, pid)
		syscall.Close(fd)
	}
	return st, threads, err
}

// statFDBudget is half the soft RLIMIT_NOFILE: sampling may hold that
// many descriptors, and the checkpoint writer, HTTP server and everything
// else keep the other half.
func statFDBudget() int {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil || rl.Cur < 2 {
		return 1
	}
	return int(min(rl.Cur/2, 1<<20))
}

// forgetStatFD closes pid's table entry, if any.
func forgetStatFD(pid int) {
	statFDs.Lock()
	if fd, ok := statFDs.m[pid]; ok {
		delete(statFDs.m, pid)
		syscall.Close(fd)
	}
	statFDs.Unlock()
}

// flushStatFDs closes every table entry. Fixture tests call it when they
// repoint procRoot: a descriptor held on a regular fixture file never
// fails the way a procfs one does once its process is gone.
func flushStatFDs() {
	statFDs.Lock()
	for pid, fd := range statFDs.m {
		delete(statFDs.m, pid)
		syscall.Close(fd)
	}
	statFDs.Unlock()
}

// readStatUncached reads /proc/<pid>/stat with open, pread and close,
// never touching the descriptor table. It allocates nothing either.
func readStatUncached(pid int) (Stat, int, error) {
	var pb [pathBufLen]byte
	return readStatAt(atFDCWD, procPath(pb[:0], pid, "/stat"), pid)
}

// readStatAt opens path (NUL-terminated, relative to dirfd), reads and
// parses it as pid's stat, and closes it.
func readStatAt(dirfd int, path []byte, pid int) (Stat, int, error) {
	fd, err := openNUL(dirfd, path, syscall.O_RDONLY)
	if err != nil {
		return Stat{}, 0, err
	}
	defer syscall.Close(fd)
	return preadStat(pid, fd)
}

// preadStat reads and parses one stat line from offset 0 of fd.
func preadStat(pid, fd int) (Stat, int, error) {
	var buf [statBufLen]byte
	n, err := syscall.Pread(fd, buf[:], 0)
	if err != nil {
		return Stat{}, 0, err
	}
	return parseStatBytes(pid, buf[:n])
}

// anyThreadRunning reports whether some thread of pid other than its
// leader is in state R, reading /proc/<pid>/task/<tid>/stat uncached. It
// is the §2.4 blocked vote's second look at a multi-threaded process whose
// leader sleeps: a Go or JVM worker often computes on other threads while
// the leader waits.
func anyThreadRunning(pid int) bool {
	var pb [pathBufLen]byte
	dirfd, err := openNUL(atFDCWD, procPath(pb[:0], pid, "/task"), syscall.O_RDONLY|syscall.O_DIRECTORY)
	if err != nil {
		return false
	}
	defer syscall.Close(dirfd)
	var db [2048]byte
	for {
		n, err := syscall.Getdents(dirfd, db[:])
		if err != nil || n <= 0 {
			return false
		}
		// linux_dirent64: ino u64, off i64, reclen u16, type u8, name.
		for off := 0; off+19 < n; {
			reclen := int(binary.NativeEndian.Uint16(db[off+16:]))
			if reclen == 0 {
				return false
			}
			name := db[off+19 : off+reclen]
			off += reclen
			if end := bytes.IndexByte(name, 0); end >= 0 {
				name = name[:end]
			}
			tid, ok := atoiBytes(name)
			if !ok || tid == pid {
				continue
			}
			path := append(pb[:0], name...)
			path = append(path, "/stat\x00"...)
			if st, _, err := readStatAt(dirfd, path, tid); err == nil && st.State == 'R' {
				return true
			}
		}
	}
}

// procPath appends procRoot, "/", pid, suffix and a NUL terminator to b.
func procPath(b []byte, pid int, suffix string) []byte {
	b = append(b, procRoot...)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, suffix...)
	return append(b, 0)
}

// openNUL is openat(2) with O_CLOEXEC over a NUL-terminated byte path,
// which unlike syscall.Openat builds no string and so allocates nothing.
func openNUL(dirfd int, path []byte, flags int) (int, error) {
	fd, _, errno := syscall.Syscall6(syscall.SYS_OPENAT, uintptr(dirfd),
		uintptr(unsafe.Pointer(&path[0])), uintptr(flags|syscall.O_CLOEXEC), 0, 0, 0)
	if errno != 0 {
		return -1, errno
	}
	return int(fd), nil
}
