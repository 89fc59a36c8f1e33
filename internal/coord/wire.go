// Package coord is the ALPS fleet control plane: a coordinator that
// owns a global share distribution across many scheduler shards, and the
// shard-side agent that attaches to it.
//
// The design center is partition tolerance, not throughput. Shards pull:
// each cmd/alps shard registers under a TTL lease, heartbeats its
// auditor gauges (consumed CPU per principal, RMS share error, overload
// state), and receives its slice of the global distribution piggybacked
// on heartbeat responses whenever the coordinator has committed a newer
// epoch. Between rebalances every shard schedules autonomously, so the
// coordinator is never on the quantum hot path; when the coordinator
// dies or the network partitions, shards simply keep their
// last-committed static shares and say so in /healthz. Every commit is
// epoch-numbered and checkpointed (internal/ckpt) before it is
// published, so a coordinator restart resumes at the current epoch and a
// restart from a *stale* checkpoint cannot roll shares backward: shards
// reject non-increasing epochs, and the coordinator fast-forwards its
// epoch from their heartbeats.
//
// The wire format is JSON over HTTP (stdlib only). An Assignment is
// exactly the /admin/config reconfiguration document — the same
// {quantum, tasks:[{id,share}]} shape an operator POSTs by hand — plus
// the epoch that versions it.
package coord

import "time"

// TaskShare names one resource principal and a share for it — local to a
// shard in registrations and assignments, global in the coordinator's
// weight table.
type TaskShare struct {
	ID    int64 `json:"id"`
	Share int64 `json:"share"`
}

// Assignment is one shard's slice of the global distribution at a given
// epoch. Quantum and Tasks follow the /admin/config document shape, so a
// shard applies an assignment through the exact reconfiguration path an
// operator uses.
type Assignment struct {
	Epoch   uint64      `json:"epoch"`
	Quantum string      `json:"quantum,omitempty"`
	Tasks   []TaskShare `json:"tasks,omitempty"`
}

// ShardGauges is the feedback signal a shard heartbeats: the auditor and
// health numbers the coordinator rebalances from.
type ShardGauges struct {
	// Consumed is cumulative CPU consumed per principal since the shard
	// started, in seconds. The coordinator differences consecutive
	// readings itself, so a shard restart (counters back to zero) is
	// detected rather than misread as negative consumption.
	Consumed map[int64]float64 `json:"consumed,omitempty"`
	// RMSShareError is the shard's local windowed §3.1 RMS share error.
	RMSShareError float64 `json:"rms_share_error"`
	// Degraded reports the shard's overload guard has stretched its
	// quantum (or its runner has seen faults).
	Degraded bool `json:"degraded,omitempty"`
	// Cycles counts completed allocation cycles (liveness signal).
	Cycles int64 `json:"cycles"`
	// TraceDumps counts flight-recorder windows the shard's recorder has
	// dumped. The coordinator's status shows it in the shard's row, so an
	// operator knows which shard's dump (its -trace-dir or /debug/trace)
	// to read.
	TraceDumps int64 `json:"trace_dumps,omitempty"`
}

// RegisterRequest attaches a shard to the coordinator: its name and the
// principals it hosts with their current local shares.
type RegisterRequest struct {
	Shard string      `json:"shard"`
	Tasks []TaskShare `json:"tasks"`
	// Capacity is the shard's relative capacity weight (CPU horsepower
	// vs its peers); 0 means 1.0. The rebalancer boosts corrections on
	// big hosts and tempers them on small ones — heterogeneous fleets
	// converge without hand-tuned per-shard weight tables.
	Capacity float64 `json:"capacity,omitempty"`
}

// RegisterResponse grants a lease and hands the shard its current
// assignment (last committed if the coordinator has seen this shard
// before — possibly restored from its checkpoint — otherwise an initial
// slice derived from the registered shares).
type RegisterResponse struct {
	Lease      string     `json:"lease"`
	TTLMillis  int64      `json:"ttl_ms"`
	Assignment Assignment `json:"assignment"`
}

// HeartbeatRequest renews a lease and reports the shard's gauges plus
// the epoch it last committed (so the coordinator knows what to re-send,
// and can fast-forward after a stale restart).
type HeartbeatRequest struct {
	Shard  string      `json:"shard"`
	Lease  string      `json:"lease"`
	Epoch  uint64      `json:"epoch"`
	Gauges ShardGauges `json:"gauges"`
}

// HeartbeatResponse renews the lease; Assignment is present only when
// the coordinator has committed an epoch newer than the shard's.
type HeartbeatResponse struct {
	TTLMillis  int64       `json:"ttl_ms"`
	Assignment *Assignment `json:"assignment,omitempty"`
}

// WeightsRequest reconfigures the global weight table live:
// POST /coord/v1/weights. Validate-all-then-apply; the committed table
// is checkpointed like any other commit.
type WeightsRequest struct {
	Weights []TaskShare `json:"weights"`
}

// WeightsResponse reports the committed table and the epoch that
// published it.
type WeightsResponse struct {
	Epoch   uint64      `json:"epoch"`
	Weights []TaskShare `json:"weights"`
}

// wireError is the JSON error body all coordinator endpoints return.
type wireError struct {
	Error string `json:"error"`
}

// DefaultTTL is the lease TTL when ServerConfig leaves it zero.
const DefaultTTL = 5 * time.Second

// DefaultRebalanceEvery is the rebalance period when left zero.
const DefaultRebalanceEvery = 2 * time.Second
