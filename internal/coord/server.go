package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"alps/internal/ckpt"
	"alps/internal/obs"
	"alps/internal/tshist"
)

// ServerConfig parameterizes a coordinator.
type ServerConfig struct {
	// TTL is the lease TTL granted to shards; a shard silent past it is
	// declared dead and its capacity redistributed. Default DefaultTTL.
	TTL time.Duration
	// RebalanceEvery is the rebalance period. Default
	// DefaultRebalanceEvery.
	RebalanceEvery time.Duration
	// Quantum, if nonzero, is a fleet-wide quantum pushed with every
	// assignment (zero: each shard keeps its own -q).
	Quantum time.Duration
	// Weights is the operator-supplied global distribution. Principals
	// a shard registers that are absent here are adopted with their
	// registered share as weight.
	Weights map[int64]int64
	// StatePath, if nonempty, checkpoints the committed distribution
	// (epoch, weights, per-shard assignments) via internal/ckpt before
	// each publish, and restores it in NewServer. A coordinator restarted
	// on it resumes where it stopped; it is the only recovery state.
	StatePath string
	// Planner tunes the rebalance step.
	Planner PlannerConfig
	// Clock overrides time.Now (tests run on a virtual clock).
	Clock func() time.Time
	// Metrics, if non-nil, receives the alps_coord_* families and the
	// alps_fleet_* fleet estimators and per-shard gauges.
	Metrics *obs.Registry
	// History, if non-nil, retains the fleet's timeline (normally sampling
	// Metrics, so it carries the alps_coord_* and alps_fleet_* gauges).
	// Tick drives its cadence, so in coordsim the samples land on the
	// virtual clock.
	History *tshist.Store
	// Logf, if non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// shardRec is one attached shard's runtime state (leases are volatile:
// they are never checkpointed, a restarted coordinator re-learns the
// fleet from re-registrations).
type shardRec struct {
	lease    string
	expires  time.Time
	ackEpoch uint64
	gauges   ShardGauges
	// lastCum is the last cumulative per-principal consumption reading;
	// window accumulates differenced consumption for the next rebalance.
	lastCum map[int64]float64
	window  map[int64]float64
	// capacity is the shard's registered relative capacity weight (0 → 1).
	capacity float64
}

// Server is the coordinator: lease table, weight table, epoch-numbered
// committed assignments, and the rebalance loop. It implements
// http.Handler for the /coord/v1/* endpoints. All methods are safe for
// concurrent use.
type Server struct {
	cfg ServerConfig
	now func() time.Time

	mu       sync.Mutex
	epoch    uint64
	weights  map[int64]int64
	assigned map[string]map[int64]int64 // last committed per-shard shares
	shards   map[string]*shardRec       // live leases only
	detached map[string]*shardRec       // expired leases not yet re-registered
	leaseSeq uint64
	nextReb  time.Time
	lastRMS  float64 // last measured global RMS (-1: no signal yet)
	stats    fleetStats

	registers, heartbeats, expiries counter
	rebalances, fastForwards        counter
	ckptErrors, rejectedStaleLeases counter
	counterRegressions              counter
	weightUpdates                   counter
	mux                             *http.ServeMux
}

// counter is a tiny internal counter mirrored to the obs registry via
// CounterFunc, so Status() and /metrics read the same source.
type counter struct {
	mu sync.Mutex
	v  int64
}

func (c *counter) inc()       { c.mu.Lock(); c.v++; c.mu.Unlock() }
func (c *counter) get() int64 { c.mu.Lock(); defer c.mu.Unlock(); return c.v }

// maxBodyBytes bounds every request body the coordinator reads; the
// control plane must not be stallable by an unbounded POST.
const maxBodyBytes = 1 << 20

// NewServer builds a coordinator, restoring the committed distribution
// from cfg.StatePath when a checkpoint exists there (fail-closed: a
// corrupt file is an error, not a silent fresh start).
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.RebalanceEvery <= 0 {
		cfg.RebalanceEvery = DefaultRebalanceEvery
	}
	s := &Server{
		cfg:      cfg,
		now:      time.Now,
		weights:  make(map[int64]int64),
		assigned: make(map[string]map[int64]int64),
		shards:   make(map[string]*shardRec),
		detached: make(map[string]*shardRec),
		lastRMS:  -1,
		stats:    newFleetStats(),
	}
	if cfg.Clock != nil {
		s.now = cfg.Clock
	}
	for p, w := range cfg.Weights {
		if w <= 0 {
			return nil, fmt.Errorf("coord: weight %d for principal %d is not positive", w, p)
		}
		s.weights[p] = w
	}
	if cfg.StatePath != "" {
		var st persistedState
		err := ckpt.Load(cfg.StatePath, &st)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// fresh start
		case err != nil:
			return nil, fmt.Errorf("coord: state file %s: %w (refusing partial restore)", cfg.StatePath, err)
		default:
			s.epoch = st.Epoch
			for p, w := range st.Weights {
				if _, fromOperator := s.weights[p]; !fromOperator {
					s.weights[p] = w
				}
			}
			for name, shares := range st.Assigned {
				s.assigned[name] = shares
			}
			s.logf("coord: restored state epoch=%d shards=%d principals=%d",
				st.Epoch, len(st.Assigned), len(s.weights))
		}
	}
	s.nextReb = s.now().Add(cfg.RebalanceEvery)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/coord/v1/register", s.handleRegister)
	s.mux.HandleFunc("/coord/v1/heartbeat", s.handleHeartbeat)
	s.mux.HandleFunc("/coord/v1/assignment", s.handleAssignment)
	s.mux.HandleFunc("/coord/v1/status", s.handleStatus)
	s.mux.HandleFunc("/coord/v1/weights", s.handleWeights)
	if cfg.Metrics != nil {
		s.registerMetrics(cfg.Metrics)
	}
	return s, nil
}

// persistedState is the checkpoint payload: everything epoch semantics
// depend on. Leases and consumption windows are deliberately absent —
// they are re-learned from heartbeats. ckpt.Load ignores unknown fields,
// so a checkpoint written by a replica of an earlier build, which also
// carries "term", still restores.
type persistedState struct {
	Epoch    uint64                     `json:"epoch"`
	Weights  map[int64]int64            `json:"weights"`
	Assigned map[string]map[int64]int64 `json:"assigned"`
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) registerMetrics(reg *obs.Registry) {
	reg.GaugeFunc("alps_coord_epoch",
		"Last committed rebalance epoch.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(s.epoch) })
	reg.GaugeFunc("alps_coord_leases_active",
		"Shards currently holding an unexpired lease.",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return float64(len(s.shards)) })
	reg.GaugeFunc("alps_coord_global_rms_share_error",
		"Global RMS relative share error measured at the last rebalance (-1: no signal).",
		func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return s.lastRMS })
	reg.CounterFunc("alps_coord_registers_total",
		"Shard registrations accepted.", s.registers.get)
	reg.CounterFunc("alps_coord_heartbeats_total",
		"Shard heartbeats accepted.", s.heartbeats.get)
	reg.CounterFunc("alps_coord_lease_expiries_total",
		"Leases expired (shard declared dead, capacity redistributed).", s.expiries.get)
	reg.CounterFunc("alps_coord_rebalances_total",
		"Rebalance rounds committed (epoch advanced).", s.rebalances.get)
	reg.CounterFunc("alps_coord_stale_fastforwards_total",
		"Epoch fast-forwards after a restart from a stale checkpoint.", s.fastForwards.get)
	reg.CounterFunc("alps_coord_checkpoint_errors_total",
		"Distribution checkpoint writes that failed (publish proceeded).", s.ckptErrors.get)
	reg.CounterFunc("alps_coord_unknown_leases_total",
		"Heartbeats rejected for an unknown or superseded lease.", s.rejectedStaleLeases.get)
	reg.CounterFunc("alps_coord_counter_regressions_total",
		"Heartbeats whose consumption counters went backwards (clamped).", s.counterRegressions.get)
	reg.CounterFunc("alps_coord_weight_updates_total",
		"Live weight-table reconfigurations committed.", s.weightUpdates.get)

	s.stats.propHist = reg.Histogram("alps_fleet_epoch_propagation_seconds",
		"Latency from epoch commit to each shard's heartbeat ack.", obs.LatencyBuckets)
	locked := func(fn func() float64) func() float64 {
		return func() float64 { s.mu.Lock(); defer s.mu.Unlock(); return fn() }
	}
	reg.GaugeFunc("alps_fleet_shards_degraded",
		"Leased, non-stale shards reporting degraded local scheduling.",
		func() float64 { _, degraded := s.countShards(s.now()); return float64(degraded) })
	reg.GaugeFunc("alps_fleet_shards_stale",
		"Leased shards silent past their lease expiry, not yet expired by the next tick.",
		func() float64 { stale, _ := s.countShards(s.now()); return float64(stale) })
	reg.GaugeFunc("alps_fleet_shards_detached",
		"Shards whose lease expired and have not re-registered.",
		locked(func() float64 { return float64(len(s.detached)) }))
	reg.GaugeFunc("alps_fleet_global_rms_share_error",
		"Fleet-wide RMS share error vs the global weight table, over the last 8 rounds' summed consumption.",
		locked(func() float64 { return s.stats.windowRMS }))
	reg.GaugeFunc("alps_fleet_global_rms_share_error_ewma",
		"EWMA-smoothed per-round fleet RMS share error — the aliasing-free estimator.",
		locked(func() float64 { return s.stats.ewma.Value() }))
	reg.GaugeFunc("alps_fleet_rms_beat_ratio",
		"(max-min)/mean of recent per-round fleet RMS values; near 0 when steady.",
		locked(s.stats.beatRatio))
	reg.GaugeFunc("alps_fleet_convergence_rounds",
		"Rebalance rounds the last disturbance took to settle.",
		locked(func() float64 { return float64(s.stats.convRounds) }))
	reg.GaugeFunc("alps_fleet_converged",
		"1 when no rebalance round has moved shares recently.",
		locked(func() float64 { return boolGauge(s.stats.converged) }))
}

// registerShardMetrics exports one shard's per-shard gauges, read from
// its live or detached record at scrape time. Every shard-sourced value
// (its RMS, its ack epoch) has a last_heartbeat_age_seconds stamp beside
// it: a dead shard's frozen values must not scrape like live ones.
// GaugeFunc re-registration replaces, so every registration may call it.
func (s *Server) registerShardMetrics(name string) {
	reg := s.cfg.Metrics
	if reg == nil {
		return
	}
	gauge := func(family, help string, fn func(rec *shardRec, detached bool, now time.Time) float64) {
		reg.GaugeFunc(fmt.Sprintf("%s{shard=%q}", family, name), help, func() float64 {
			now := s.now()
			s.mu.Lock()
			defer s.mu.Unlock()
			rec, detached := s.shards[name], false
			if rec == nil {
				rec, detached = s.detached[name], true
			}
			if rec == nil {
				return math.NaN()
			}
			return fn(rec, detached, now)
		})
	}
	gauge("alps_fleet_lease_age_seconds", "Seconds since the shard last renewed its lease (+Inf once it expired).",
		func(rec *shardRec, detached bool, now time.Time) float64 {
			if detached {
				return math.Inf(1)
			}
			return s.leaseAge(rec, now)
		})
	gauge("alps_fleet_last_heartbeat_age_seconds",
		"Seconds since the shard last renewed its lease, detached or not — the staleness stamp for every per-shard gauge.",
		func(rec *shardRec, _ bool, now time.Time) float64 { return s.leaseAge(rec, now) })
	gauge("alps_fleet_shard_rms_share_error",
		"The shard's last reported local RMS share error (check the heartbeat-age stamp for freshness).",
		func(rec *shardRec, _ bool, _ time.Time) float64 { return rec.gauges.RMSShareError })
	gauge("alps_fleet_shard_ack_epoch", "Last weight-table epoch the shard acknowledged.",
		func(rec *shardRec, _ bool, _ time.Time) float64 { return float64(rec.ackEpoch) })
	gauge("alps_fleet_shard_stale",
		"1 when the shard is past its lease expiry or detached: its gauges are history, not fleet state.",
		func(rec *shardRec, detached bool, now time.Time) float64 {
			return boolGauge(detached || now.After(rec.expires))
		})
}

// leaseAge is the time in seconds since the shard last renewed its
// lease, by registering or heartbeating.
func (s *Server) leaseAge(rec *shardRec, now time.Time) float64 {
	return now.Sub(rec.expires.Add(-s.cfg.TTL)).Seconds()
}

// countShards counts the leased shards past their lease expiry (stale)
// and, among the rest, those reporting degraded scheduling.
func (s *Server) countShards(now time.Time) (stale, degraded int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range s.shards {
		switch {
		case now.After(rec.expires):
			stale++
		case rec.gauges.Degraded:
			degraded++
		}
	}
	return stale, degraded
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ServeHTTP serves the /coord/v1/* control-plane endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Tick drives the retained fleet history, lease expiry and the
// rebalance schedule; Run calls it periodically, deterministic tests
// call it directly.
func (s *Server) Tick(now time.Time) {
	if s.cfg.History != nil {
		s.cfg.History.Tick(now)
	}
	expired := s.ExpireLeases(now)
	s.mu.Lock()
	due := !now.Before(s.nextReb)
	s.mu.Unlock()
	if due || expired > 0 {
		s.Rebalance(now)
	}
}

// Run drives Tick on a real clock until ctx is done.
func (s *Server) Run(ctx interface{ Done() <-chan struct{} }) {
	period := s.cfg.TTL / 4
	if period <= 0 || period > s.cfg.RebalanceEvery/2 {
		period = s.cfg.RebalanceEvery / 2
	}
	if period <= 0 {
		period = 100 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.Tick(s.now())
		}
	}
}

// ExpireLeases detaches every shard whose lease expired before now and
// reports how many it detached. Their last-committed assignments are
// kept, so a shard that comes back resumes where it left off.
func (s *Server) ExpireLeases(now time.Time) int {
	s.mu.Lock()
	var dead []string
	for _, name := range sortedNames(s.shards) {
		if now.After(s.shards[name].expires) {
			dead = append(dead, name)
		}
	}
	for _, name := range dead {
		s.detached[name] = s.shards[name]
		delete(s.shards, name)
	}
	s.mu.Unlock()
	for _, name := range dead {
		s.expiries.inc()
		s.logf("coord: lease expired, shard %s declared dead", name)
	}
	return len(dead)
}

// Rebalance runs one planning round over the live shards and, if any
// share moved, commits it (see commitLocked); shards pull the new
// assignment on their next heartbeat.
func (s *Server) Rebalance(now time.Time) {
	s.mu.Lock()
	s.nextReb = now.Add(s.cfg.RebalanceEvery)
	loads := make([]ShardLoad, 0, len(s.shards))
	for name, rec := range s.shards {
		// The window is spent whether or not anything moves. Plan reads
		// it unlocked, so heartbeats landing meanwhile go to a fresh one.
		window := rec.window
		rec.window = make(map[int64]float64)
		shares := s.assigned[name]
		if len(shares) == 0 {
			continue
		}
		loads = append(loads, ShardLoad{Name: name, Shares: shares, Consumed: window, Capacity: rec.capacity})
	}
	sort.Slice(loads, func(i, j int) bool { return loads[i].Name < loads[j].Name })
	weights := make(map[int64]int64, len(s.weights))
	for p, w := range s.weights {
		weights[p] = w
	}
	s.mu.Unlock()
	if len(loads) == 0 {
		return
	}

	res := Plan(s.cfg.Planner, weights, loads)

	s.mu.Lock()
	if res.GlobalRMS >= 0 {
		s.lastRMS = res.GlobalRMS
	}
	s.stats.round(res)
	var saveErr error
	if res.Changed {
		for name, shares := range res.Shares {
			s.assigned[name] = shares
		}
		saveErr = s.commitLocked(now)
	}
	epoch := s.epoch
	s.mu.Unlock()
	s.reportSave(saveErr)

	if !res.Changed {
		return
	}
	s.rebalances.inc()
	s.logf("coord: committed epoch %d (rms=%.3f, %d shards)", epoch, res.GlobalRMS, len(loads))
}

// commitLocked makes the current weights and assignments the next epoch:
// epoch+1, then the checkpoint, both under s.mu. No heartbeat can read
// the new epoch before the file holds it, and two commits cannot save
// out of order, so a coordinator killed at any point restarts into the
// last epoch it published, never behind it. It returns the save error
// for the caller to pass to reportSave once s.mu is released.
func (s *Server) commitLocked(now time.Time) error {
	s.epoch++
	s.stats.commit(s.epoch, now)
	if s.cfg.StatePath == "" {
		return nil
	}
	return ckpt.Save(s.cfg.StatePath, s.persistedLocked())
}

// reportSave counts and logs a failed commit checkpoint. The epoch is
// published anyway: heartbeats fast-forward a coordinator that restarts
// behind its shards, so the epoch protocol is the backstop the
// checkpoint merely accelerates.
func (s *Server) reportSave(err error) {
	if err != nil {
		s.ckptErrors.inc()
		s.logf("coord: checkpoint %s failed: %v (publishing anyway)", s.cfg.StatePath, err)
	}
}

func (s *Server) persistedLocked() persistedState {
	st := persistedState{
		Epoch:    s.epoch,
		Weights:  make(map[int64]int64, len(s.weights)),
		Assigned: make(map[string]map[int64]int64, len(s.assigned)),
	}
	for p, w := range s.weights {
		st.Weights[p] = w
	}
	for name, shares := range s.assigned {
		cp := make(map[int64]int64, len(shares))
		for p, sh := range shares {
			cp[p] = sh
		}
		st.Assigned[name] = cp
	}
	return st
}

// assignmentLocked builds the wire Assignment for one shard at the
// current epoch.
func (s *Server) assignmentLocked(name string) Assignment {
	a := Assignment{Epoch: s.epoch}
	if s.cfg.Quantum > 0 {
		a.Quantum = s.cfg.Quantum.String()
	}
	shares := s.assigned[name]
	ids := make([]int64, 0, len(shares))
	for p := range shares {
		ids = append(ids, p)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, p := range ids {
		a.Tasks = append(a.Tasks, TaskShare{ID: p, Share: shares[p]})
	}
	return a
}

// Register attaches (or re-attaches) a shard: grants a fresh lease,
// adopts weights for principals the operator didn't configure, and
// returns the shard's current assignment. A re-registration supersedes
// any lease the shard held before (the newest incarnation wins).
func (s *Server) Register(req RegisterRequest) (RegisterResponse, error) {
	if req.Shard == "" {
		return RegisterResponse{}, errors.New("coord: register: empty shard name")
	}
	if len(req.Tasks) == 0 {
		return RegisterResponse{}, errors.New("coord: register: no tasks")
	}
	for _, t := range req.Tasks {
		if t.Share <= 0 {
			return RegisterResponse{}, fmt.Errorf("coord: register: share %d for task %d is not positive", t.Share, t.ID)
		}
	}
	if req.Capacity < 0 {
		return RegisterResponse{}, fmt.Errorf("coord: register: capacity %g is negative", req.Capacity)
	}
	now := s.now()
	s.mu.Lock()
	for _, t := range req.Tasks {
		if _, ok := s.weights[t.ID]; !ok {
			s.weights[t.ID] = t.Share
		}
	}
	// Committed shares win over the registered ones (a shard re-joining
	// after a crash resumes its last slice); previously unseen shards
	// start from their registered vector. Principals added since the
	// last commit join at their registered share.
	shares := s.assigned[req.Shard]
	if shares == nil {
		shares = make(map[int64]int64, len(req.Tasks))
	}
	merged := make(map[int64]int64, len(req.Tasks))
	for _, t := range req.Tasks {
		if sh, ok := shares[t.ID]; ok {
			merged[t.ID] = sh
		} else {
			merged[t.ID] = t.Share
		}
	}
	s.assigned[req.Shard] = merged
	s.leaseSeq++
	rec := &shardRec{
		lease:    fmt.Sprintf("lease-%d", s.leaseSeq),
		expires:  now.Add(s.cfg.TTL),
		lastCum:  make(map[int64]float64),
		window:   make(map[int64]float64),
		capacity: req.Capacity,
	}
	delete(s.detached, req.Shard)
	s.shards[req.Shard] = rec
	resp := RegisterResponse{
		Lease:      rec.lease,
		TTLMillis:  s.cfg.TTL.Milliseconds(),
		Assignment: s.assignmentLocked(req.Shard),
	}
	s.mu.Unlock()
	s.registers.inc()
	s.registerShardMetrics(req.Shard)
	s.logf("coord: shard %s registered (%d tasks, lease %s)", req.Shard, len(req.Tasks), resp.Lease)
	return resp, nil
}

// errUnknownLease makes a heartbeat for a dead or superseded lease a
// distinct, client-actionable failure: re-register.
var errUnknownLease = errors.New("coord: unknown or superseded lease")

// Heartbeat renews a lease, records the shard's gauges, and returns the
// current assignment when the coordinator has committed an epoch newer
// than the shard's. A heartbeat carrying an epoch *ahead* of the
// coordinator means this coordinator restarted from a stale checkpoint:
// it fast-forwards, so its next commit is newer than anything any shard
// has — epochs never roll backward fleet-wide.
func (s *Server) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	now := s.now()
	s.mu.Lock()
	rec := s.shards[req.Shard]
	if rec == nil || rec.lease != req.Lease {
		s.mu.Unlock()
		s.rejectedStaleLeases.inc()
		return HeartbeatResponse{}, errUnknownLease
	}
	rec.expires = now.Add(s.cfg.TTL)
	prevAck := rec.ackEpoch
	rec.ackEpoch = req.Epoch
	rec.gauges = req.Gauges
	regressed := false
	for p, cum := range req.Gauges.Consumed {
		last := rec.lastCum[p]
		delta := cum - last
		if delta < 0 {
			// Shard restarted mid-window: counters reset, so the fresh
			// cumulative value is the whole new window — clamped at zero
			// so a rewound reading can never subtract consumption.
			regressed = true
			if delta = cum; delta < 0 {
				delta = 0
			}
		}
		rec.window[p] += delta
		rec.lastCum[p] = cum
	}
	if req.Epoch > s.epoch {
		s.logf("coord: fast-forwarding epoch %d -> %d (stale checkpoint; shard %s is ahead)",
			s.epoch, req.Epoch, req.Shard)
		s.epoch = req.Epoch
		s.fastForwards.inc()
	}
	if req.Epoch > prevAck {
		s.stats.ack(req.Shard, req.Epoch, now)
	}
	resp := HeartbeatResponse{TTLMillis: s.cfg.TTL.Milliseconds()}
	if s.epoch > req.Epoch {
		a := s.assignmentLocked(req.Shard)
		resp.Assignment = &a
	}
	s.mu.Unlock()
	s.heartbeats.inc()
	if regressed {
		s.counterRegressions.inc()
		s.logf("coord: shard %s consumption counters went backwards (restart?); delta clamped", req.Shard)
	}
	return resp, nil
}

// Epoch returns the last committed epoch.
func (s *Server) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// GlobalRMS returns the global RMS share error measured at the last
// rebalance round that had consumption to measure (-1 before that).
func (s *Server) GlobalRMS() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastRMS
}

// ShardStatus is one shard's row in the coordinator's fleet status.
type ShardStatus struct {
	Shard    string      `json:"shard"`
	Lease    string      `json:"lease"`
	TTLLeft  string      `json:"ttl_left"`
	AckEpoch uint64      `json:"ack_epoch"`
	Gauges   ShardGauges `json:"gauges"`
	Shares   []TaskShare `json:"shares"`
	// LeaseAgeSec is the time since the shard last renewed its lease.
	LeaseAgeSec float64 `json:"lease_age_sec"`
	// Stale: past its lease expiry but not yet expired by the next tick,
	// so its gauges are history, not fleet state.
	Stale bool `json:"stale,omitempty"`
}

// FleetStatus is the coordinator's status document, served on
// /coord/v1/status and /healthz.
type FleetStatus struct {
	Epoch uint64 `json:"epoch"`
	// GlobalRMS is the last round's global RMS share error (-1: no
	// signal yet); GlobalRMSWindowed sums the last 8 rounds'
	// consumption, and GlobalRMSEWMA smooths the per-round values.
	GlobalRMS         float64 `json:"global_rms_share_error"`
	GlobalRMSWindowed float64 `json:"global_rms_share_error_windowed"`
	GlobalRMSEWMA     float64 `json:"global_rms_share_error_ewma"`
	// Converged is false while rebalance rounds keep moving shares;
	// ConvergenceRounds is how many rounds the last disturbance took.
	Converged         bool `json:"converged"`
	ConvergenceRounds int  `json:"convergence_rounds"`
	// Epoch propagation: latencies observed from each commit to each
	// shard's first heartbeat acking it.
	PropagationCount   int64           `json:"epoch_propagation_count"`
	PropagationMaxSec  float64         `json:"epoch_propagation_max_sec"`
	LeaseExpiries      int64           `json:"lease_expiries"`
	CounterRegressions int64           `json:"counter_regressions"`
	Weights            map[int64]int64 `json:"weights"`
	// Shards holds a lease; Detached lost it and has not re-registered.
	Shards   []ShardStatus `json:"shards"`
	Detached []ShardStatus `json:"detached,omitempty"`
}

// Status snapshots the fleet for operators.
func (s *Server) Status() FleetStatus {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := FleetStatus{
		Epoch:              s.epoch,
		GlobalRMS:          s.lastRMS,
		GlobalRMSWindowed:  s.stats.windowRMS,
		GlobalRMSEWMA:      s.stats.ewma.Value(),
		Converged:          s.stats.converged,
		ConvergenceRounds:  s.stats.convRounds,
		PropagationCount:   s.stats.propCount,
		PropagationMaxSec:  s.stats.propMax,
		LeaseExpiries:      s.expiries.get(),
		CounterRegressions: s.counterRegressions.get(),
		Weights:            make(map[int64]int64, len(s.weights)),
	}
	for p, w := range s.weights {
		st.Weights[p] = w
	}
	st.Shards = s.shardRowsLocked(s.shards, false, now)
	st.Detached = s.shardRowsLocked(s.detached, true, now)
	return st
}

// sortedNames returns the shard names of recs in sorted order, so every
// walk that logs per-shard lines or renders rows is reproducible.
func sortedNames(recs map[string]*shardRec) []string {
	names := make([]string, 0, len(recs))
	for name := range recs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// shardRowsLocked renders shard records as status rows, sorted by name.
func (s *Server) shardRowsLocked(recs map[string]*shardRec, detached bool, now time.Time) []ShardStatus {
	var rows []ShardStatus
	for _, name := range sortedNames(recs) {
		rec := recs[name]
		rows = append(rows, ShardStatus{
			Shard:       name,
			Lease:       rec.lease,
			TTLLeft:     rec.expires.Sub(now).String(),
			AckEpoch:    rec.ackEpoch,
			Gauges:      rec.gauges,
			Shares:      s.assignmentLocked(name).Tasks,
			LeaseAgeSec: s.leaseAge(rec, now),
			Stale:       !detached && now.After(rec.expires),
		})
	}
	return rows
}

// --- HTTP plumbing ---

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, err := s.Register(req)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, err := s.Heartbeat(req)
	if errors.Is(err, errUnknownLease) {
		writeJSONError(w, http.StatusNotFound, err)
		return
	}
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleAssignment(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		writeJSONError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	name := r.URL.Query().Get("shard")
	s.mu.Lock()
	_, known := s.assigned[name]
	a := s.assignmentLocked(name)
	s.mu.Unlock()
	if name == "" || !known {
		writeJSONError(w, http.StatusNotFound, fmt.Errorf("coord: unknown shard %q", name))
		return
	}
	writeJSON(w, a)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		writeJSONError(w, http.StatusMethodNotAllowed, errors.New("GET only"))
		return
	}
	writeJSON(w, s.Status())
}

// SetWeights reconfigures the global weight table live:
// validate-all-then-apply, then an epoch commit, so every shard pulls a
// re-stamped assignment and later rebalances steer toward the new
// targets.
func (s *Server) SetWeights(ws []TaskShare) (WeightsResponse, error) {
	if len(ws) == 0 {
		return WeightsResponse{}, errors.New("coord: weights: empty table")
	}
	weights := make(map[int64]int64, len(ws))
	for _, t := range ws {
		if t.Share <= 0 {
			return WeightsResponse{}, fmt.Errorf("coord: weights: weight %d for principal %d is not positive", t.Share, t.ID)
		}
		if _, dup := weights[t.ID]; dup {
			return WeightsResponse{}, fmt.Errorf("coord: weights: duplicate principal %d", t.ID)
		}
		weights[t.ID] = t.Share
	}
	now := s.now()
	s.mu.Lock()
	s.weights = weights
	saveErr := s.commitLocked(now)
	resp := WeightsResponse{Epoch: s.epoch}
	s.mu.Unlock()
	s.reportSave(saveErr)
	resp.Weights = append([]TaskShare(nil), ws...)
	sort.Slice(resp.Weights, func(i, j int) bool { return resp.Weights[i].ID < resp.Weights[j].ID })
	s.weightUpdates.inc()
	s.logf("coord: weight table reconfigured (%d principals), committed epoch %d", len(ws), resp.Epoch)
	return resp, nil
}

// handleWeights serves POST /coord/v1/weights.
func (s *Server) handleWeights(w http.ResponseWriter, r *http.Request) {
	var req WeightsRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, err := s.SetWeights(req.Weights)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, resp)
}

// decodeBody reads a size-capped POST body with strict field checking;
// on failure it writes the error response and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, out any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeJSONError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func writeJSONError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(wireError{Error: err.Error()})
}
