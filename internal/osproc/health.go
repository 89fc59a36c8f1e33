package osproc

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Health is a point-in-time snapshot of the Runner's fault and timing
// telemetry: the §6 deployment story ("an unprivileged process safely
// steering a live server") is only trustworthy if the operator can see
// how often the substrate misbehaved and what the loop did about it.
type Health struct {
	// Ticks is the number of algorithm invocations, including
	// catch-up invocations issued for overrun quanta.
	Ticks int64
	// VanishedPIDs counts PIDs dropped because the process exited or
	// became a zombie (ESRCH / missing /proc entry), or because a joining
	// PID could not be read.
	VanishedPIDs int64
	// ReusedPIDs counts PIDs dropped because their /proc start time
	// changed: the kernel recycled the PID for an unrelated process.
	ReusedPIDs int64
	// SignalFailures counts signal deliveries that failed with the
	// process still present (EPERM).
	SignalFailures int64
	// UnsignalablePIDs counts PIDs dropped after repeated consecutive
	// signal or read denials (the graceful-degradation path), or because
	// the signal that joins a PID to its task failed.
	UnsignalablePIDs int64
	// MissedTicks counts whole quanta the timer overran (the loop fired
	// ≥ 2Q after its predecessor).
	MissedTicks int64
	// CatchUpTicks counts the extra algorithm invocations issued to
	// compensate missed quanta (capped per step).
	CatchUpTicks int64
	// RefreshErrors counts membership-refresh entries ignored because
	// they name a task the runner does not know. A listed PID that cannot
	// join counts as vanished, unsignalable or reused, as on every other
	// adoption path.
	RefreshErrors int64
	// Reconfigs counts applied live-reconfiguration changes (SIGHUP,
	// /admin/config).
	Reconfigs int64
	// OverloadDegrades and OverloadRecovers count overload-guard level
	// changes; DegradeLevel is the current level (0 = nominal) and
	// EffectiveQuantum the quantum currently in force (baseQ << level).
	OverloadDegrades int64
	OverloadRecovers int64
	DegradeLevel     int
	EffectiveQuantum time.Duration
	// DormantTasks is the number of tasks out of S as of the last Step:
	// observed blocked through a whole cycle, runnable, and read only by
	// the scheduler's watch until they show consumption.
	DormantTasks int
	// LastLateness is how late the most recent step fired past its
	// quantum; MaxLateness is the worst observed.
	LastLateness time.Duration
	MaxLateness  time.Duration
}

// String renders the snapshot as a single key=value telemetry line.
func (h Health) String() string {
	return fmt.Sprintf(
		"ticks=%d vanished=%d reused=%d sig_failures=%d unsignalable=%d missed_ticks=%d catchup_ticks=%d refresh_errors=%d reconfigs=%d degrade_level=%d eff_quantum=%v dormant=%d late_last=%v late_max=%v",
		h.Ticks, h.VanishedPIDs, h.ReusedPIDs, h.SignalFailures,
		h.UnsignalablePIDs, h.MissedTicks, h.CatchUpTicks,
		h.RefreshErrors, h.Reconfigs, h.DegradeLevel, h.EffectiveQuantum,
		h.DormantTasks, h.LastLateness, h.MaxLateness)
}

// Degraded reports whether the loop has seen any fault or overrun — the
// cue for an operator (or cmd/alps) to surface the full snapshot.
func (h Health) Degraded() bool {
	return h.DegradeLevel > 0 ||
		h.VanishedPIDs+h.ReusedPIDs+h.SignalFailures+
			h.UnsignalablePIDs+h.MissedTicks+h.RefreshErrors > 0
}

// healthCounters is the Runner's internal, concurrency-safe counter set.
// The control loop is single-goroutine, but Health() may be called from
// another goroutine (a metrics exporter, a signal handler); atomics make
// the snapshot race-free without a lock on the hot path.
type healthCounters struct {
	ticks, vanished, reused            atomic.Int64
	sigFailures, unsignalable          atomic.Int64
	missedTicks, catchUpTicks          atomic.Int64
	refreshErrors, reconfigs           atomic.Int64
	overloadDegrades, overloadRecovers atomic.Int64
	degradeLevel, effQuantumNS         atomic.Int64
	lastLatenessNS, maxLatenessNS      atomic.Int64
	dormant                            atomic.Int64
}

func (c *healthCounters) noteLateness(d time.Duration) {
	c.lastLatenessNS.Store(int64(d))
	for {
		cur := c.maxLatenessNS.Load()
		if int64(d) <= cur || c.maxLatenessNS.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

func (c *healthCounters) snapshot() Health {
	return Health{
		Ticks:            c.ticks.Load(),
		VanishedPIDs:     c.vanished.Load(),
		ReusedPIDs:       c.reused.Load(),
		SignalFailures:   c.sigFailures.Load(),
		UnsignalablePIDs: c.unsignalable.Load(),
		MissedTicks:      c.missedTicks.Load(),
		CatchUpTicks:     c.catchUpTicks.Load(),
		RefreshErrors:    c.refreshErrors.Load(),
		Reconfigs:        c.reconfigs.Load(),
		OverloadDegrades: c.overloadDegrades.Load(),
		OverloadRecovers: c.overloadRecovers.Load(),
		DegradeLevel:     int(c.degradeLevel.Load()),
		EffectiveQuantum: time.Duration(c.effQuantumNS.Load()),
		DormantTasks:     int(c.dormant.Load()),
		LastLateness:     time.Duration(c.lastLatenessNS.Load()),
		MaxLateness:      time.Duration(c.maxLatenessNS.Load()),
	}
}
