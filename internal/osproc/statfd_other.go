//go:build !linux

package osproc

// Without Linux procfs there is nothing to cache: sampling falls back to
// the allocating ReadStat, which fails where /proc is absent.

func readStatFD(pid int) (Stat, int, error) { return readStatUncached(pid) }

func readStatUncached(pid int) (Stat, int, error) {
	st, err := ReadStat(pid)
	return st, 0, err
}

func forgetStatFD(int) {}

func flushStatFDs() {}

func anyThreadRunning(int) bool { return false }
