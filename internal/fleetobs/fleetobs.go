// Package fleetobs is the fleet-wide observability layer on top of the
// coord control plane: epoch-causal distributed tracing, metrics
// federation, and correlated flight recording.
//
// Three pieces, all stdlib-only:
//
//   - Tracer: a per-node bounded ring of control-plane events
//     (plan/commit/publish/apply/ack/lease-expire/...), each stamped with
//     the node's incarnation and a monotone span id. The coordinator
//     stamps every published assignment with a TraceContext; the shard
//     echoes the context of its last applied assignment on heartbeats, so
//     both ends of every epoch propagation are linkable into
//     publish→apply→ack chains and rendered as Chrome flow events by
//     trace.BuildFleet.
//   - FleetAuditor: the fleet-level mirror of trace.Auditor — global RMS
//     share error against the global weight table over a sliding window
//     of rebalance rounds, per-shard lease age, an epoch propagation
//     latency histogram (commit → each shard's ack), degraded/stale shard
//     counts and rebalance-round convergence, exported as alps_fleet_*
//     and served on /fleet/metrics + /fleet/healthz.
//   - Bundler: correlated flight recording. When any member's recorder
//     fires (heartbeated as ShardGauges.TraceDumps), or the coordinator
//     sees a lease loss or epoch stall, it opens a collection; the dump
//     request piggybacks on heartbeat responses (shards pull — the
//     coordinator never initiates connections), each member uploads its
//     ring around the same epoch window, and the bundle lands in a
//     fleet-<reason>-<epoch>/ directory plus /debug/fleet-trace.
//
// The package sits between trace and coord: it imports trace (and obs),
// coord imports it. It never imports coord — the wire types coord embeds
// (TraceContext, DumpRequest, DumpPayload) are defined here.
package fleetobs

import (
	"sync"
	"sync/atomic"
	"time"

	"alps/internal/obs"
	"alps/internal/trace"
)

// Kind classifies a fleet control-plane event.
type Kind uint8

const (
	// KindPlan: the coordinator ran one rebalance planning round.
	KindPlan Kind = iota + 1
	// KindCommit: a planning round moved shares; epoch advanced and the
	// distribution was checkpointed.
	KindCommit
	// KindPublish: an assignment left the coordinator toward one shard
	// (piggybacked on a register or heartbeat response).
	KindPublish
	// KindApply: a shard committed a pulled assignment to its local
	// scheduler. Parent names the publish span that carried it.
	KindApply
	// KindAck: the coordinator observed a shard heartbeating a newly
	// applied epoch. Parent names the publish span the shard echoed.
	KindAck
	// KindRegister: a shard attached (or re-attached) under a new lease.
	KindRegister
	// KindLeaseExpire: a shard went silent past its TTL.
	KindLeaseExpire
	// KindFastForward: the coordinator adopted a shard's higher epoch
	// after restarting from a stale checkpoint.
	KindFastForward
	// KindCounterRegression: a shard's cumulative consumption counters
	// went backwards (restart mid-window); the delta was clamped.
	KindCounterRegression
	// KindEpochStall: a live shard kept acking an epoch behind the
	// committed one past the stall bound.
	KindEpochStall
	// KindDumpRequest: the coordinator opened a correlated collection.
	KindDumpRequest
	// KindDumpUpload: a member uploaded its window to a collection.
	KindDumpUpload
	// KindElected: a replica won the leadership lease and took over at a
	// new, higher term.
	KindElected
	// KindStepDown: a leader observed a higher term (a peer or shard has
	// moved on) and demoted itself to follower.
	KindStepDown
	// KindFenced: a publish or replica pull carrying a term below the
	// applied one was rejected — the deposed-leader write fence firing.
	KindFenced
	// KindWeights: the global weight table was reconfigured live over
	// POST /coord/v1/weights.
	KindWeights
)

var kindNames = map[Kind]string{
	KindPlan:              "plan",
	KindCommit:            "commit",
	KindPublish:           "publish",
	KindApply:             "apply",
	KindAck:               "ack",
	KindRegister:          "register",
	KindLeaseExpire:       "lease_expire",
	KindFastForward:       "fast_forward",
	KindCounterRegression: "counter_regression",
	KindEpochStall:        "epoch_stall",
	KindDumpRequest:       "dump_request",
	KindDumpUpload:        "dump_upload",
	KindElected:           "elected",
	KindStepDown:          "step_down",
	KindFenced:            "fenced",
	KindWeights:           "weights_update",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "unknown"
}

// TraceContext is the epoch-causal trace context stamped on control-plane
// RPCs: the assignment's epoch, the emitting coordinator's incarnation,
// and the publish span id. A shard stores the context of the assignment
// it applied and echoes it on heartbeats, closing the
// publish→apply→ack loop.
type TraceContext struct {
	Epoch       uint64 `json:"epoch"`
	Incarnation uint64 `json:"incarnation"`
	Span        uint64 `json:"span"`
	// Term is the leadership term of the coordinator that published the
	// assignment (0 on streams recorded before replication existed). A
	// merged fleet trace renders it on every span, so a failover handover
	// is visible as the term argument stepping up across tracks.
	Term uint64 `json:"term,omitempty"`
}

// Event is one entry in a node's fleet trace ring.
type Event struct {
	Kind Kind      `json:"kind"`
	At   time.Time `json:"at"`
	// Dur is the span length (0: an instant).
	Dur time.Duration `json:"dur,omitempty"`
	// Epoch is the epoch the event concerns.
	Epoch uint64 `json:"epoch,omitempty"`
	// Term is the leadership term the event concerns (0: unknown or
	// pre-replication).
	Term uint64 `json:"term,omitempty"`
	// Peer names the other endpoint: the shard on coordinator events.
	Peer string `json:"peer,omitempty"`
	// Span is this event's id, monotone per (node, incarnation).
	Span uint64 `json:"span,omitempty"`
	// Parent/ParentInc name the remote span that caused this event (an
	// apply's publish), matching TraceContext.Span/Incarnation.
	Parent    uint64 `json:"parent,omitempty"`
	ParentInc uint64 `json:"parent_inc,omitempty"`
	// Incarnation is the emitting node's (filled by the Tracer).
	Incarnation uint64 `json:"incarnation,omitempty"`
	// Note carries free-form detail ("reason=lease_lost").
	Note string `json:"note,omitempty"`
}

// DefaultTracerEvents is the ring capacity when TracerConfig leaves
// Events zero: control-plane events are rare (a handful per rebalance
// round), so 4096 covers many minutes of fleet history.
const DefaultTracerEvents = 4096

// TracerConfig parameterizes a Tracer.
type TracerConfig struct {
	// Node names this node in merged traces (shard name, or the
	// coordinator's).
	Node string
	// Coordinator marks the coordinator's tracer.
	Coordinator bool
	// Events is the ring capacity (DefaultTracerEvents when 0).
	Events int
	// Now overrides time.Now (tests and coordsim run on virtual clocks).
	Now func() time.Time
}

// Tracer records one node's fleet control-plane events: a lock-light
// bounded ring plus the span-id counter and incarnation that make the
// node's events causally addressable. The incarnation is the start
// timestamp, so two lives of the same node never collide and a merged
// trace can tell them apart.
type Tracer struct {
	cfg         TracerConfig
	incarnation uint64
	now         func() time.Time

	span  atomic.Uint64
	total atomic.Int64

	mu   sync.Mutex
	ring *obs.Ring[Event]
}

// NewTracer builds a tracer; the incarnation is taken from the clock.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Events <= 0 {
		cfg.Events = DefaultTracerEvents
	}
	now := time.Now
	if cfg.Now != nil {
		now = cfg.Now
	}
	return &Tracer{
		cfg:         cfg,
		incarnation: uint64(now().UnixNano()),
		now:         now,
		ring:        obs.NewRing[Event](cfg.Events),
	}
}

// Node returns the node name.
func (t *Tracer) Node() string { return t.cfg.Node }

// Incarnation returns this tracer's incarnation (its start timestamp).
func (t *Tracer) Incarnation() uint64 { return t.incarnation }

// NextSpan allocates a fresh monotone span id.
func (t *Tracer) NextSpan() uint64 { return t.span.Add(1) }

// Emit records an event, filling At (when zero), Incarnation and Span
// (when zero) from the tracer's own state.
func (t *Tracer) Emit(e Event) {
	if e.At.IsZero() {
		e.At = t.now()
	}
	if e.Incarnation == 0 {
		e.Incarnation = t.incarnation
	}
	if e.Span == 0 {
		e.Span = t.NextSpan()
	}
	t.mu.Lock()
	t.ring.Push(e)
	t.mu.Unlock()
	t.total.Add(1)
}

// Events returns the total number of events ever emitted.
func (t *Tracer) Events() int64 { return t.total.Load() }

// Snapshot returns the current window, oldest first.
func (t *Tracer) Snapshot() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Snapshot()
}

// Source converts the current window into a trace.FleetSource for
// merging; obs and anchor attach the node's local flight-recorder
// window (both may be empty).
func (t *Tracer) Source(obsWindow []obs.Event, anchor time.Time) trace.FleetSource {
	return trace.FleetSource{
		Name:        t.cfg.Node,
		Coordinator: t.cfg.Coordinator,
		Spans:       SpansOf(t.Snapshot()),
		Obs:         obsWindow,
		Anchor:      anchor,
	}
}

// SpansOf converts fleet events to the merge layer's span model.
func SpansOf(events []Event) []trace.FleetSpan {
	spans := make([]trace.FleetSpan, 0, len(events))
	for _, e := range events {
		sp := trace.FleetSpan{
			Name:      e.Kind.String(),
			At:        e.At,
			Dur:       e.Dur,
			Epoch:     e.Epoch,
			Term:      e.Term,
			Inc:       e.Incarnation,
			Span:      e.Span,
			Parent:    e.Parent,
			ParentInc: e.ParentInc,
		}
		if e.Peer != "" || e.Note != "" {
			sp.Args = map[string]any{}
			if e.Peer != "" {
				sp.Args["peer"] = e.Peer
			}
			if e.Note != "" {
				sp.Args["note"] = e.Note
			}
		}
		spans = append(spans, sp)
	}
	return spans
}
