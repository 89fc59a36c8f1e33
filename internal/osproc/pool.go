package osproc

import (
	"sync"
	"sync/atomic"
)

// Concurrent sampling and signal batching. At thousands of controlled
// PIDs the /proc reads and kill(2) calls dominate the quantum; the loop
// fans the raw syscalls out over a bounded worker pool
// (Config.Samplers) while keeping every bookkeeping decision — strike
// accounting, PID drops, the process records, error reporting — on the
// loop goroutine in deterministic order. Workers therefore touch only
// the Sys surface and atomic health counters, and outcomes are
// guaranteed to match the sequential path: FaultSys fault schedules are
// per-(pid, call) FIFOs, so per-PID results are interleaving-independent
// (the -race merge-determinism tests hold both paths to this).

// pool runs fn(0..n-1) over at most `workers` goroutines and waits for
// all of them. With one worker (or one item) it degrades to a plain loop
// on the calling goroutine. A batch allocates nothing: its state lives in
// the pool, the worker body is bound once, and fn is a func value the
// caller also binds once (the Runner's prefetchAt and deliverAt).
type pool struct {
	fn   func(int)
	n    int64
	next atomic.Int64
	wg   sync.WaitGroup
	work func() // p.drain, bound on first use
}

func (p *pool) run(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if p.work == nil {
		p.work = p.drain
	}
	p.fn, p.n = fn, int64(n)
	p.next.Store(0)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.work()
	}
	p.wg.Wait()
	p.fn = nil
}

// drain is one worker: it claims items by atomic index until none remain.
func (p *pool) drain() {
	defer p.wg.Done()
	for {
		i := p.next.Add(1) - 1
		if i >= p.n {
			return
		}
		p.fn(int(i))
	}
}

// workers returns the effective sampler-pool width: Config.Samplers,
// floored at 1, and forced to 1 when DisableIndexing asks for the fully
// sequential seed loop.
func (r *Runner) workers() int {
	if r.cfg.DisableIndexing || r.cfg.Samplers <= 1 {
		return 1
	}
	return r.cfg.Samplers
}

// statResult is one prefetched stat read (the outcome of readStat).
type statResult struct {
	st  Stat
	err error
}

// prefetch performs this quantum's stat reads concurrently, on the
// tick's first read. The scheduler's DueBatch is exactly the tasks stage
// 1 is measuring, so the pool reads their PIDs' stats into statCache and
// read() consumes the cache instead of issuing syscalls. Each worker
// times its own reads in readStat. No-op when sampling sequentially.
func (r *Runner) prefetch() {
	w := r.workers()
	if w <= 1 {
		return
	}
	pids := r.prefetchPIDs[:0]
	for _, id := range r.sched.DueBatch() {
		pids = append(pids, r.tasks[id].pids...)
	}
	r.prefetchPIDs = pids
	if len(pids) <= 1 {
		return
	}
	if cap(r.prefetchRes) < len(pids) {
		r.prefetchRes = make([]statResult, len(pids))
	}
	r.prefetchRes = r.prefetchRes[:len(pids)]
	r.pool.run(w, len(pids), r.prefetchOne)
	if r.statScratch == nil {
		r.statScratch = make(map[int]statResult, len(pids))
	} else {
		clear(r.statScratch)
	}
	for i, pid := range pids {
		r.statScratch[pid] = r.prefetchRes[i]
	}
	r.statCache = r.statScratch
}

// prefetchAt is one prefetch item: the stat read of prefetchPIDs[i].
func (r *Runner) prefetchAt(i int) {
	st, err := r.readStat(r.prefetchPIDs[i])
	r.prefetchRes[i] = statResult{st: st, err: err}
}

// cachedStat returns the prefetched stat for pid, falling back to a
// synchronous readStat when the quantum has no prefetch.
func (r *Runner) cachedStat(pid int) (Stat, error) {
	if res, ok := r.statCache[pid]; ok {
		return res.st, res.err
	}
	return r.readStat(pid)
}
