package fleetobs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"alps/internal/metrics"
	"alps/internal/obs"
)

// DefaultRMSWindow is the number of rebalance rounds the global RMS share
// error averages over when AuditorConfig leaves RMSWindow zero. One round
// is a single heartbeat window per shard — noisy; eight rounds smooth
// per-window jitter without hiding real drift.
const DefaultRMSWindow = 8

// DefaultStableStreak is how many consecutive no-change rounds declare
// the fleet converged after a disturbance.
const DefaultStableStreak = 2

// trackedCommits bounds the per-epoch propagation bookkeeping: acks for
// epochs older than the newest 64 commits are no longer timed (a shard
// that far behind is the degraded-shard gauge's problem, not latency's).
const trackedCommits = 64

// DefaultEWMAAlpha is the per-round EWMA weight when AuditorConfig
// leaves EWMAAlpha zero. 0.1 attenuates the short window-vs-duty-cycle
// beats (period 2-4 rounds) by an order of magnitude while still
// tracking a real drift within ~10 rounds.
const DefaultEWMAAlpha = 0.1

// beatWindow bounds the ring of recent per-round RMS values behind the
// alps_fleet_rms_beat_ratio gauge.
const beatWindow = 32

// ewmaTrail is how many recent EWMA values the Rising detector keeps.
const ewmaTrail = 4

// AuditorConfig parameterizes a FleetAuditor.
type AuditorConfig struct {
	// Now overrides time.Now.
	Now func() time.Time
	// RMSWindow is the global-RMS sliding window in rebalance rounds
	// (DefaultRMSWindow when 0).
	RMSWindow int
	// StableStreak is the convergence streak (DefaultStableStreak when 0).
	StableStreak int
	// LeaseTTL, when nonzero, marks a shard's gauges stale once its last
	// heartbeat is older than the TTL, even if no explicit lease expiry
	// was reported. Stale rows are excluded from the live/degraded counts
	// and flagged in healthz — a dead shard's last-known gauges must not
	// keep shaping the fleet picture forever.
	LeaseTTL time.Duration
	// EWMAAlpha weights the per-round EWMA share-error estimator
	// (DefaultEWMAAlpha when 0; negative disables, pinning the EWMA
	// gauge to the raw windowed RMS). The raw windowed gauge is
	// untouched either way — the EWMA is a second estimator beside it.
	EWMAAlpha float64
}

// Flag bits in a ShardAudit's packed state word.
const (
	auditDegraded = 1 << iota
	auditDetached
)

// ShardAudit is one shard's row in the fleet auditor, updated on every
// heartbeat. The fields are independent atomics — no lock at all on the
// hot path; readers (gauges, healthz) tolerate seeing a heartbeat's
// fields mid-update, which only skews a monitoring snapshot by one
// beat.
type ShardAudit struct {
	name string

	lastBeatNano atomic.Int64
	ackEpoch     atomic.Uint64
	rmsBits      atomic.Uint64
	flags        atomic.Uint32
}

// OnHeartbeat records one heartbeat's shard-local gauges (and clears
// the detached flag: a heartbeat means the shard re-attached).
func (a *ShardAudit) OnHeartbeat(at time.Time, ackEpoch uint64, rms float64, degraded bool) {
	a.lastBeatNano.Store(at.UnixNano())
	a.ackEpoch.Store(ackEpoch)
	a.rmsBits.Store(math.Float64bits(rms))
	var f uint32
	if degraded {
		f = auditDegraded
	}
	a.flags.Store(f)
}

// markDetached sets the detached flag, preserving degraded.
func (a *ShardAudit) markDetached() {
	for {
		old := a.flags.Load()
		if a.flags.CompareAndSwap(old, old|auditDetached) {
			return
		}
	}
}

// snapshot reads the row.
func (a *ShardAudit) snapshot() (lastBeat time.Time, ackEpoch uint64, rms float64, degraded, detached bool) {
	if nano := a.lastBeatNano.Load(); nano != 0 {
		lastBeat = time.Unix(0, nano)
	}
	f := a.flags.Load()
	return lastBeat, a.ackEpoch.Load(), math.Float64frombits(a.rmsBits.Load()),
		f&auditDegraded != 0, f&auditDetached != 0
}

// commitRec times one committed epoch's propagation to each shard.
type commitRec struct {
	epoch uint64
	at    time.Time
	acked map[string]bool
}

// roundRec is one rebalance round's aggregated consumption, the unit of
// the global-RMS sliding window.
type roundRec struct {
	consumed map[int64]float64
}

// FleetAuditor is the fleet-level mirror of the single-node accuracy
// auditor: it folds per-shard heartbeat gauges and per-round aggregates
// into fleet health — global RMS share error against the global weight
// table, per-shard lease age, epoch propagation latency, degraded and
// detached counts, and rebalance-round convergence — exported as
// alps_fleet_* metrics and a /fleet/healthz document.
type FleetAuditor struct {
	cfg AuditorConfig
	now func() time.Time

	counterRegressions atomic.Int64
	leaseExpiries      atomic.Int64
	registrations      atomic.Int64

	// Propagation stats kept inline so healthz works without a registry;
	// the histogram (when registered) gets the same observations.
	propCount atomic.Int64
	propMax   obs.Gauge

	mu       sync.Mutex
	shards   map[string]*ShardAudit
	commits  *obs.Ring[commitRec]
	rounds   *obs.Ring[roundRec]
	weights  map[int64]float64
	rms      float64
	roundRMS float64 // newest round only — the wobbly instantaneous view
	ewma     float64
	ewmaInit bool
	trail    *obs.Ring[float64] // recent EWMA values, for the Rising detector
	beatRing *obs.Ring[float64] // recent per-round RMS values, for the beat gauge
	conv     convergence
	hist     *obs.Histogram
	reg      *obs.Registry
	leader   string
	term     uint64
	isLeader bool
	replicas map[string]replicaRec
}

// convergence is the round-level state machine: a round that moved
// shares is a disturbance; StableStreak unchanged rounds after one
// declare the fleet converged and record how many rounds it took.
type convergence struct {
	converged bool
	rounds    int // rounds since the disturbance began
	stable    int // consecutive unchanged rounds
	last      int // rounds the previous disturbance took to settle
}

// NewFleetAuditor builds an auditor.
func NewFleetAuditor(cfg AuditorConfig) *FleetAuditor {
	if cfg.RMSWindow <= 0 {
		cfg.RMSWindow = DefaultRMSWindow
	}
	if cfg.StableStreak <= 0 {
		cfg.StableStreak = DefaultStableStreak
	}
	if cfg.EWMAAlpha == 0 {
		cfg.EWMAAlpha = DefaultEWMAAlpha
	}
	now := time.Now
	if cfg.Now != nil {
		now = cfg.Now
	}
	return &FleetAuditor{
		cfg:      cfg,
		now:      now,
		shards:   make(map[string]*ShardAudit),
		commits:  obs.NewRing[commitRec](trackedCommits),
		rounds:   obs.NewRing[roundRec](cfg.RMSWindow),
		trail:    obs.NewRing[float64](ewmaTrail),
		beatRing: obs.NewRing[float64](beatWindow),
		conv:     convergence{converged: true},
	}
}

// Shard returns (creating if needed) the named shard's audit row. The
// server caches the pointer in its shard record so heartbeats touch only
// the row mutex.
func (f *FleetAuditor) Shard(name string) *ShardAudit {
	f.mu.Lock()
	defer f.mu.Unlock()
	row, ok := f.shards[name]
	if !ok {
		row = &ShardAudit{name: name}
		f.shards[name] = row
		f.registrations.Add(1)
		if f.reg != nil {
			f.registerLeaseAgeLocked(row)
		}
	}
	return row
}

// registerLeaseAgeLocked exports one shard's federated gauges. Caller
// holds f.mu; GaugeFunc re-registration replaces, so re-attach is safe.
//
// Every shard-sourced value (its RMS, its ack epoch) is stamped with a
// last_heartbeat_age_seconds gauge beside it: a federated gauge is only
// as fresh as its last heartbeat, and without the stamp a dead shard's
// frozen values scrape exactly like live ones.
func (f *FleetAuditor) registerLeaseAgeLocked(row *ShardAudit) {
	f.reg.GaugeFunc(
		fmt.Sprintf("alps_fleet_lease_age_seconds{shard=%q}", row.name),
		"Seconds since the shard's last heartbeat.",
		func() float64 {
			last, _, _, _, detached := row.snapshot()
			if last.IsZero() || detached {
				return math.Inf(1)
			}
			return f.now().Sub(last).Seconds()
		})
	f.reg.GaugeFunc(
		fmt.Sprintf("alps_fleet_last_heartbeat_age_seconds{shard=%q}", row.name),
		"Seconds since the shard's last heartbeat, detached or not — the staleness stamp for every federated per-shard gauge.",
		func() float64 {
			last, _, _, _, _ := row.snapshot()
			if last.IsZero() {
				return math.Inf(1)
			}
			return f.now().Sub(last).Seconds()
		})
	f.reg.GaugeFunc(
		fmt.Sprintf("alps_fleet_shard_rms_share_error{shard=%q}", row.name),
		"The shard's last reported local RMS share error (check the heartbeat-age stamp for freshness).",
		func() float64 {
			_, _, rms, _, _ := row.snapshot()
			return rms
		})
	f.reg.GaugeFunc(
		fmt.Sprintf("alps_fleet_shard_ack_epoch{shard=%q}", row.name),
		"Last weight-table epoch the shard acknowledged.",
		func() float64 {
			_, ack, _, _, _ := row.snapshot()
			return float64(ack)
		})
	f.reg.GaugeFunc(
		fmt.Sprintf("alps_fleet_shard_stale{shard=%q}", row.name),
		"1 when the shard is silent past the lease TTL (or detached): its federated gauges are history, not fleet state.",
		func() float64 {
			last, _, _, _, detached := row.snapshot()
			if detached || f.stale(last, f.now()) {
				return 1
			}
			return 0
		})
}

// OnCommit records a committed epoch so later acks can be timed.
func (f *FleetAuditor) OnCommit(epoch uint64, at time.Time) {
	f.mu.Lock()
	f.commits.Push(commitRec{epoch: epoch, at: at, acked: make(map[string]bool)})
	f.mu.Unlock()
}

// OnAck times the propagation of every tracked commit the shard's new
// ack epoch covers for the first time. Called only when a heartbeat
// advances the shard's acked epoch — the slow path.
func (f *FleetAuditor) OnAck(shard string, ackEpoch uint64, at time.Time) {
	f.mu.Lock()
	for i := f.commits.Len() - 1; i >= 0; i-- {
		c := f.commits.Newest(i)
		if c.epoch > ackEpoch || c.acked[shard] {
			continue
		}
		c.acked[shard] = true
		lat := at.Sub(c.at).Seconds()
		if lat < 0 {
			lat = 0
		}
		f.propCount.Add(1)
		f.propMax.SetMax(lat)
		if f.hist != nil {
			f.hist.Observe(lat)
		}
	}
	f.mu.Unlock()
}

// OnRound folds one rebalance round: the fleet-aggregated window
// consumption per principal, the global weight table, and whether the
// round moved shares. It advances the global RMS sliding window and the
// convergence state machine.
func (f *FleetAuditor) OnRound(consumed map[int64]float64, weights map[int64]float64, changed bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.weights = weights
	f.rounds.Push(roundRec{consumed: consumed})
	f.rms = f.globalRMSLocked()

	// The per-round estimators: an instantaneous RMS over just this
	// round (which beats against shard duty cycles), the EWMA that
	// smooths that beat away, and the ring behind the beat-ratio gauge.
	f.roundRMS = f.rmsOfLocked(consumed)
	if a := f.cfg.EWMAAlpha; a > 0 {
		if !f.ewmaInit {
			f.ewma, f.ewmaInit = f.roundRMS, true
		} else {
			f.ewma = a*f.roundRMS + (1-a)*f.ewma
		}
	} else {
		f.ewma, f.ewmaInit = f.rms, true
	}
	f.trail.Push(f.ewma)
	f.beatRing.Push(f.roundRMS)

	c := &f.conv
	if changed {
		if c.converged {
			c.converged = false
			c.rounds = 0
		}
		c.rounds++
		c.stable = 0
	} else if !c.converged {
		c.rounds++
		c.stable++
		if c.stable >= f.cfg.StableStreak {
			c.converged = true
			c.last = c.rounds
		}
	}
}

// globalRMSLocked computes §3.1's RMS share error fleet-wide: over the
// window, each principal's achieved fraction of total consumption vs its
// fraction of total weight, error normalized by the target. Principals
// with zero weight or no consumption window are skipped.
func (f *FleetAuditor) globalRMSLocked() float64 {
	if f.rounds.Len() == 0 {
		return 0
	}
	sum := make(map[int64]float64)
	for i := f.rounds.Len() - 1; i >= 0; i-- {
		for p, v := range f.rounds.Newest(i).consumed {
			sum[p] += v
		}
	}
	return f.rmsOfLocked(sum)
}

// rmsOfLocked computes the fleet RMS share error of one consumption
// aggregate against the current weight table. Caller holds f.mu.
func (f *FleetAuditor) rmsOfLocked(sum map[int64]float64) float64 {
	if len(f.weights) == 0 {
		return 0
	}
	var total float64
	for _, v := range sum {
		total += v
	}
	if total <= 0 {
		return 0
	}
	var totalW float64
	for _, w := range f.weights {
		if w > 0 {
			totalW += w
		}
	}
	if totalW <= 0 {
		return 0
	}
	errs := make([]float64, 0, len(f.weights))
	for p, w := range f.weights {
		if w <= 0 {
			continue
		}
		target := w / totalW
		achieved := sum[p] / total
		errs = append(errs, (achieved-target)/target)
	}
	return metrics.RMS(errs)
}

// stale reports whether a row's gauges are stale: its last beat is
// older than the configured lease TTL (and it never detached cleanly —
// detached rows are already excluded).
func (f *FleetAuditor) stale(lastBeat time.Time, now time.Time) bool {
	if f.cfg.LeaseTTL <= 0 || lastBeat.IsZero() {
		return false
	}
	return now.Sub(lastBeat) > f.cfg.LeaseTTL
}

// OnLeadership records the replication view: who leads, at what term,
// and whether this node is the leader. Surfaced in /fleet/healthz and
// the alps_fleet_term / alps_fleet_is_leader gauges.
func (f *FleetAuditor) OnLeadership(leader string, term uint64, isLeader bool) {
	f.mu.Lock()
	f.leader = leader
	f.term = term
	f.isLeader = isLeader
	f.mu.Unlock()
}

// OnReplicaState records one peer replica's last observed term and epoch
// (from a leader probe or follower pull), for the replica-lag rows in
// /fleet/healthz.
func (f *FleetAuditor) OnReplicaState(url string, term, epoch uint64, at time.Time) {
	f.mu.Lock()
	if f.replicas == nil {
		f.replicas = make(map[string]replicaRec)
	}
	f.replicas[url] = replicaRec{term: term, epoch: epoch, at: at}
	f.mu.Unlock()
}

// replicaRec is one peer replica's last observed replication state.
type replicaRec struct {
	term  uint64
	epoch uint64
	at    time.Time
}

// OnLeaseExpire marks a shard detached.
func (f *FleetAuditor) OnLeaseExpire(shard string) {
	f.leaseExpiries.Add(1)
	f.mu.Lock()
	row := f.shards[shard]
	f.mu.Unlock()
	if row != nil {
		row.markDetached()
	}
}

// OnCounterRegression counts one clamped consumption-counter rewind.
func (f *FleetAuditor) OnCounterRegression() { f.counterRegressions.Add(1) }

// GlobalRMSShareError returns the windowed fleet-wide RMS share error.
func (f *FleetAuditor) GlobalRMSShareError() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rms
}

// RoundRMSShareError returns the newest round's instantaneous fleet RMS
// — the raw view that beats against shard duty cycles.
func (f *FleetAuditor) RoundRMSShareError() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.roundRMS
}

// EWMAShareError returns the EWMA-smoothed per-round fleet RMS.
func (f *FleetAuditor) EWMAShareError() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ewma
}

// RMSBeatRatio returns (max-min)/mean over the recent per-round RMS
// values — the aliasing-beat diagnostic at fleet level.
func (f *FleetAuditor) RMSBeatRatio() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return metrics.BeatRatio(f.beatRing.Snapshot())
}

// ConvergenceView is the compact control signal the rebalancer's
// adaptive damping consumes: the convergence state machine plus the
// smoothed error estimators, read in one lock acquisition.
type ConvergenceView struct {
	// Valid is false until at least one rebalance round has been folded
	// in — an adaptive consumer must fall back to its static tuning.
	Valid bool
	// Converged mirrors the alps_fleet_converged gauge.
	Converged bool
	// EWMA is the smoothed per-round fleet RMS share error.
	EWMA float64
	// Round is the newest round's raw instantaneous RMS.
	Round float64
	// Rising is true when the EWMA has been climbing across the recent
	// trail — the fleet is diverging, not just wobbling.
	Rising bool
}

// Convergence snapshots the view.
func (f *FleetAuditor) Convergence() ConvergenceView {
	f.mu.Lock()
	defer f.mu.Unlock()
	v := ConvergenceView{
		Valid:     f.rounds.Len() > 0,
		Converged: f.conv.converged,
		EWMA:      f.ewma,
		Round:     f.roundRMS,
	}
	if trail := f.trail.Snapshot(); len(trail) == ewmaTrail {
		// Monotone climb with real head-to-tail magnitude — a steady
		// wobble (alternating up/down around a settled mean) must not
		// read as divergence.
		n := len(trail)
		rising := trail[n-1] > trail[0]*1.05 && trail[n-1]-trail[0] > 1e-9
		for i := 1; i < n && rising; i++ {
			if trail[i] < trail[i-1] {
				rising = false
			}
		}
		v.Rising = rising
	}
	return v
}

// Register exports the fleet gauges on a registry (typically the
// coordinator's dedicated fleet registry behind /fleet/metrics).
func (f *FleetAuditor) Register(reg *obs.Registry) {
	f.mu.Lock()
	f.reg = reg
	f.hist = reg.Histogram("alps_fleet_epoch_propagation_seconds",
		"Latency from epoch commit to each shard's heartbeat ack.", obs.LatencyBuckets)
	for _, row := range f.shards {
		f.registerLeaseAgeLocked(row)
	}
	f.mu.Unlock()

	reg.GaugeFunc("alps_fleet_shards",
		"Shards currently attached (live lease).", func() float64 {
			live, _, _, _ := f.countShards()
			return float64(live)
		})
	reg.GaugeFunc("alps_fleet_shards_degraded",
		"Attached shards reporting degraded local scheduling.", func() float64 {
			_, degraded, _, _ := f.countShards()
			return float64(degraded)
		})
	reg.GaugeFunc("alps_fleet_shards_detached",
		"Shards whose lease expired and have not re-registered.", func() float64 {
			_, _, detached, _ := f.countShards()
			return float64(detached)
		})
	reg.GaugeFunc("alps_fleet_shards_stale",
		"Shards silent past the lease TTL without a clean expiry; their gauges are excluded.",
		func() float64 {
			_, _, _, stale := f.countShards()
			return float64(stale)
		})
	reg.GaugeFunc("alps_fleet_term",
		"Leadership term of the coordinator replica set (0: replication off).",
		func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return float64(f.term)
		})
	reg.GaugeFunc("alps_fleet_is_leader",
		"1 when this coordinator replica currently leads.", func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			if f.isLeader {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("alps_fleet_global_rms_share_error",
		"Fleet-wide RMS share error vs the global weight table (windowed).",
		f.GlobalRMSShareError)
	reg.GaugeFunc("alps_fleet_global_rms_share_error_round",
		"Newest round's instantaneous fleet RMS share error (beats against shard duty cycles).",
		f.RoundRMSShareError)
	reg.GaugeFunc("alps_fleet_global_rms_share_error_ewma",
		"EWMA-smoothed per-round fleet RMS share error — the aliasing-free estimator.",
		f.EWMAShareError)
	reg.GaugeFunc("alps_fleet_rms_beat_ratio",
		"(max-min)/mean of recent per-round fleet RMS values; near 0 when steady.",
		f.RMSBeatRatio)
	reg.GaugeFunc("alps_fleet_convergence_rounds",
		"Rebalance rounds the last disturbance took to settle.", func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return float64(f.conv.last)
		})
	reg.GaugeFunc("alps_fleet_converged",
		"1 when no rebalance round has moved shares recently.", func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			if f.conv.converged {
				return 1
			}
			return 0
		})
	reg.CounterFunc("alps_fleet_counter_regressions_total",
		"Heartbeat consumption counters that went backwards (clamped).",
		f.counterRegressions.Load)
	reg.CounterFunc("alps_fleet_lease_expiries_total",
		"Shard leases expired by the coordinator.", f.leaseExpiries.Load)
	reg.CounterFunc("alps_fleet_registrations_total",
		"Shard registrations observed by the auditor.", f.registrations.Load)
}

func (f *FleetAuditor) countShards() (live, degraded, detached, stale int) {
	now := f.now()
	f.mu.Lock()
	rows := make([]*ShardAudit, 0, len(f.shards))
	for _, row := range f.shards {
		rows = append(rows, row)
	}
	f.mu.Unlock()
	for _, row := range rows {
		last, _, _, deg, det := row.snapshot()
		if det {
			detached++
			continue
		}
		if f.stale(last, now) {
			// Dead without a clean lease expiry: its last-known gauges
			// are history, not fleet state.
			stale++
			continue
		}
		live++
		if deg {
			degraded++
		}
	}
	return
}

// ShardHealth is one shard's row in the healthz document.
type ShardHealth struct {
	Name        string  `json:"name"`
	AckEpoch    uint64  `json:"ack_epoch"`
	LeaseAgeSec float64 `json:"lease_age_sec"`
	RMS         float64 `json:"rms_share_error"`
	Degraded    bool    `json:"degraded"`
	Detached    bool    `json:"detached"`
	// Stale: silent past the lease TTL without a clean expiry; the row's
	// gauges are excluded from the live/degraded counts.
	Stale bool `json:"stale,omitempty"`
}

// ReplicaHealth is one peer coordinator replica's row in the healthz
// document: its last observed term/epoch and how long ago it was seen.
type ReplicaHealth struct {
	URL    string  `json:"url"`
	Term   uint64  `json:"term"`
	Epoch  uint64  `json:"epoch"`
	AgeSec float64 `json:"age_sec"`
}

// FleetHealth is the /fleet/healthz document.
type FleetHealth struct {
	Shards             []ShardHealth `json:"shards"`
	GlobalRMS          float64       `json:"global_rms_share_error"`
	Converged          bool          `json:"converged"`
	ConvergenceRounds  int           `json:"convergence_rounds"`
	PropagationCount   int64         `json:"epoch_propagation_count"`
	PropagationMaxSec  float64       `json:"epoch_propagation_max_sec"`
	CounterRegressions int64         `json:"counter_regressions"`
	LeaseExpiries      int64         `json:"lease_expiries"`
	// Replication view (zero values when the coordinator runs standalone).
	Leader   string          `json:"leader,omitempty"`
	Term     uint64          `json:"term,omitempty"`
	IsLeader bool            `json:"is_leader,omitempty"`
	Replicas []ReplicaHealth `json:"replicas,omitempty"`
}

// Health snapshots the fleet view.
func (f *FleetAuditor) Health() FleetHealth {
	now := f.now()
	f.mu.Lock()
	rows := make([]*ShardAudit, 0, len(f.shards))
	for _, row := range f.shards {
		rows = append(rows, row)
	}
	h := FleetHealth{
		GlobalRMS:         f.rms,
		Converged:         f.conv.converged,
		ConvergenceRounds: f.conv.last,
		Leader:            f.leader,
		Term:              f.term,
		IsLeader:          f.isLeader,
	}
	for url, r := range f.replicas {
		age := math.Inf(1)
		if !r.at.IsZero() {
			age = now.Sub(r.at).Seconds()
		}
		h.Replicas = append(h.Replicas, ReplicaHealth{
			URL: url, Term: r.term, Epoch: r.epoch, AgeSec: age,
		})
	}
	f.mu.Unlock()
	sort.Slice(h.Replicas, func(i, j int) bool { return h.Replicas[i].URL < h.Replicas[j].URL })

	for _, row := range rows {
		last, ack, rms, deg, det := row.snapshot()
		age := math.Inf(1)
		if !last.IsZero() {
			age = now.Sub(last).Seconds()
		}
		h.Shards = append(h.Shards, ShardHealth{
			Name: row.name, AckEpoch: ack, LeaseAgeSec: age,
			RMS: rms, Degraded: deg, Detached: det,
			Stale: !det && f.stale(last, now),
		})
	}
	sort.Slice(h.Shards, func(i, j int) bool { return h.Shards[i].Name < h.Shards[j].Name })
	h.PropagationCount = f.propCount.Load()
	h.PropagationMaxSec = f.propMax.Value()
	h.CounterRegressions = f.counterRegressions.Load()
	h.LeaseExpiries = f.leaseExpiries.Load()
	return h
}
