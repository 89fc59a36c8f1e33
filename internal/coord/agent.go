package coord

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sync"
	"time"

	"alps/internal/backoff"
	"alps/internal/obs"
)

// AgentConfig parameterizes a shard's coordinator link.
type AgentConfig struct {
	// URL is the coordinator base URL, e.g. "http://coord:7070".
	URL string
	// Shard is this shard's fleet-unique name.
	Shard string
	// Capacity is this shard's relative capacity weight carried in lease
	// registration (0 → 1.0); the rebalancer weights corrections by it.
	Capacity float64
	// Tasks reports the shard's current principals and local shares
	// (used at registration and re-registration).
	Tasks func() []TaskShare
	// Gauges reports the feedback signal for each heartbeat.
	Gauges func() ShardGauges
	// Apply commits a newly pulled assignment to the local scheduler.
	// Returning an error leaves the agent's epoch unchanged, so the
	// coordinator re-sends the assignment on the next heartbeat.
	Apply func(Assignment) error
	// Period is the heartbeat period. Default 1s. The link reports
	// degraded-to-static after 3×Period without a successful exchange,
	// and failed RPCs back off from Period/4 to a cap of 8×Period.
	Period time.Duration
	// Clock overrides time.Now; Transport overrides the HTTP transport
	// (coordsim injects faults here).
	Clock     func() time.Time
	Transport http.RoundTripper
	// Metrics, if non-nil, receives the alps_coord_link_* families.
	Metrics *obs.Registry
	// Logf, if non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// LinkStatus is the shard-side view of the coordinator link, surfaced
// under /healthz.
type LinkStatus struct {
	// Attached: the shard holds a live lease.
	Attached bool `json:"attached"`
	// Epoch is the last assignment epoch applied locally.
	Epoch uint64 `json:"epoch"`
	// LeaseAge is time since the last successful exchange ("" before
	// the first one).
	LeaseAge string `json:"lease_age,omitempty"`
	// DegradedStatic: no coordinator contact for 3×Period — the shard
	// is running on its last-committed static shares.
	DegradedStatic bool `json:"degraded_static"`
	// Failures is the current consecutive-failure count.
	Failures int `json:"failures,omitempty"`
	// Applies counts assignments applied; StaleRejected counts
	// assignments discarded for a non-increasing epoch; ApplyFailures
	// counts assignments the local scheduler refused.
	Applies       int64 `json:"applies"`
	StaleRejected int64 `json:"stale_rejected,omitempty"`
	ApplyFailures int64 `json:"apply_failures,omitempty"`
}

// Agent maintains one shard's link to the coordinator: register under a
// lease, heartbeat with gauges, pull and apply epoch-vetted assignments,
// and degrade to the last-committed static shares when the coordinator
// is unreachable. Step is the whole state machine; Run drives it on a
// real clock, deterministic tests call Step directly.
type Agent struct {
	cfg    AgentConfig
	now    func() time.Time
	client *http.Client
	retry  backoff.Policy

	mu          sync.Mutex
	attached    bool
	lease       string
	epoch       uint64
	lastContact time.Time
	fails       int
	applies     int64
	staleRej    int64
	failsTotal  int64
	applyFails  int64
	// refusedEpoch is the last epoch whose failed apply was logged, so a
	// refused assignment logs once however often it is re-sent.
	refusedEpoch uint64
}

// rpcTimeout bounds every coordinator RPC.
const rpcTimeout = 2 * time.Second

// NewAgent validates the config and builds an unattached agent; the
// first Step registers.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.URL == "" {
		return nil, errors.New("coord: agent: empty coordinator URL")
	}
	if cfg.Shard == "" {
		return nil, errors.New("coord: agent: empty shard name")
	}
	if cfg.Tasks == nil || cfg.Gauges == nil || cfg.Apply == nil {
		return nil, errors.New("coord: agent: Tasks, Gauges and Apply are all required")
	}
	if cfg.Period <= 0 {
		cfg.Period = time.Second
	}
	// Jitter seeded from the shard name, so a fleet restarting together
	// doesn't stampede the coordinator.
	h := fnv.New64a()
	_, _ = io.WriteString(h, cfg.Shard)
	a := &Agent{cfg: cfg, now: time.Now, retry: backoff.New(cfg.Period/4, 8*cfg.Period, h.Sum64())}
	if cfg.Clock != nil {
		a.now = cfg.Clock
	}
	a.client = &http.Client{Timeout: rpcTimeout}
	if cfg.Transport != nil {
		a.client.Transport = cfg.Transport
	}
	if cfg.Metrics != nil {
		a.registerMetrics(cfg.Metrics)
	}
	return a, nil
}

func (a *Agent) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}

func (a *Agent) registerMetrics(reg *obs.Registry) {
	reg.GaugeFunc("alps_coord_link_attached",
		"1 when the shard holds a live coordinator lease.",
		func() float64 {
			if a.Status().Attached {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("alps_coord_link_epoch",
		"Last assignment epoch applied on this shard.",
		func() float64 { return float64(a.Status().Epoch) })
	reg.GaugeFunc("alps_coord_link_degraded_static",
		"1 when the shard has degraded to its last-committed static shares.",
		func() float64 {
			if a.Status().DegradedStatic {
				return 1
			}
			return 0
		})
	reg.CounterFunc("alps_coord_link_failures_total",
		"Coordinator RPC failures.",
		func() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.failsTotal })
	reg.CounterFunc("alps_coord_link_applies_total",
		"Assignments applied from the coordinator.",
		func() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.applies })
	reg.CounterFunc("alps_coord_link_stale_rejected_total",
		"Assignments rejected for a non-increasing epoch.",
		func() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.staleRej })
	reg.CounterFunc("alps_coord_link_apply_failures_total",
		"Assignments the local scheduler refused to apply.",
		func() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.applyFails })
}

// Status snapshots the link for /healthz.
func (a *Agent) Status() LinkStatus {
	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	st := LinkStatus{
		Attached:       a.attached,
		Epoch:          a.epoch,
		Failures:       a.fails,
		Applies:        a.applies,
		StaleRejected:  a.staleRej,
		ApplyFailures:  a.applyFails,
		DegradedStatic: true, // never attached yet
	}
	if !a.lastContact.IsZero() {
		age := now.Sub(a.lastContact)
		st.LeaseAge = age.String()
		st.DegradedStatic = age > 3*a.cfg.Period
	}
	return st
}

// Epoch returns the last applied assignment epoch.
func (a *Agent) Epoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

// rpc outcome classes; Step's retry policy keys off these.
type rpcClass int

const (
	rpcOK        rpcClass = iota
	rpcRetryable          // net error, timeout, 5xx — back off and retry
	rpcLeaseLost          // 404/409/410 — re-register
	rpcFatal              // other 4xx — config error, log loudly, still retry slowly
)

// Step performs the next protocol action (register when unattached,
// heartbeat otherwise) and returns how long to wait before the next
// Step. It never blocks beyond one RPC timeout.
func (a *Agent) Step() time.Duration {
	a.mu.Lock()
	attached := a.attached
	a.mu.Unlock()

	var class rpcClass
	if attached {
		class = a.heartbeat()
	} else {
		class = a.register()
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	switch class {
	case rpcOK:
		a.fails = 0
		a.lastContact = a.now()
		return a.cfg.Period
	case rpcLeaseLost:
		// Not a coordinator failure — it answered, it just doesn't know
		// us (restart or expiry). Re-register after one jittered delay
		// so a fleet-wide lease wipe doesn't re-register in lockstep.
		a.attached = false
		a.lease = ""
		return a.retry.Delay(1, 1)
	default:
		a.fails++
		a.failsTotal++
		return a.retry.Delay(2, a.fails)
	}
}

// Run drives Step on real timers until ctx is done.
func (a *Agent) Run(ctx interface{ Done() <-chan struct{} }) {
	t := time.NewTimer(0)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			t.Reset(a.Step())
		}
	}
}

func (a *Agent) register() rpcClass {
	req := RegisterRequest{Shard: a.cfg.Shard, Tasks: a.cfg.Tasks(), Capacity: a.cfg.Capacity}
	var resp RegisterResponse
	class := a.post("/coord/v1/register", req, &resp)
	if class != rpcOK {
		return class
	}
	a.mu.Lock()
	a.attached = true
	a.lease = resp.Lease
	a.mu.Unlock()
	a.logf("coord-link: registered as %s (lease %s, epoch %d)", a.cfg.Shard, resp.Lease, resp.Assignment.Epoch)
	a.maybeApply(resp.Assignment)
	return rpcOK
}

func (a *Agent) heartbeat() rpcClass {
	a.mu.Lock()
	req := HeartbeatRequest{Shard: a.cfg.Shard, Lease: a.lease, Epoch: a.epoch}
	a.mu.Unlock()
	req.Gauges = a.cfg.Gauges()
	var resp HeartbeatResponse
	class := a.post("/coord/v1/heartbeat", req, &resp)
	if class != rpcOK {
		if class == rpcLeaseLost {
			a.logf("coord-link: lease lost, re-registering")
		}
		return class
	}
	if resp.Assignment != nil {
		a.maybeApply(*resp.Assignment)
	}
	return rpcOK
}

// maybeApply vets an assignment's epoch and commits it locally. The
// epoch must strictly increase: a stale coordinator (restarted from an
// old checkpoint, or a delayed duplicate response) can never roll this
// shard's shares backward.
func (a *Agent) maybeApply(asg Assignment) {
	a.mu.Lock()
	if asg.Epoch <= a.epoch {
		if asg.Epoch < a.epoch {
			a.staleRej++
			a.mu.Unlock()
			a.logf("coord-link: rejected stale assignment epoch %d (have %d)", asg.Epoch, a.epoch)
			return
		}
		a.mu.Unlock()
		return // same epoch: already applied
	}
	a.mu.Unlock()
	if err := a.cfg.Apply(asg); err != nil {
		// Leave a.epoch alone: the coordinator keeps re-sending until
		// the local scheduler accepts. Each refusal counts; only the
		// first of each epoch is logged.
		a.mu.Lock()
		a.applyFails++
		first := asg.Epoch != a.refusedEpoch
		a.refusedEpoch = asg.Epoch
		a.mu.Unlock()
		if first {
			a.logf("coord-link: apply epoch %d failed: %v", asg.Epoch, err)
		}
		return
	}
	a.mu.Lock()
	if asg.Epoch > a.epoch {
		a.epoch = asg.Epoch
		a.applies++
	}
	a.mu.Unlock()
	a.logf("coord-link: applied assignment epoch %d (%d tasks)", asg.Epoch, len(asg.Tasks))
}

// post runs one JSON POST under rpcTimeout and classifies
// the outcome.
func (a *Agent) post(path string, in, out any) rpcClass {
	body, err := json.Marshal(in)
	if err != nil {
		a.logf("coord-link: marshal %s: %v", path, err)
		return rpcFatal
	}
	httpReq, err := http.NewRequest(http.MethodPost, a.cfg.URL+path, bytes.NewReader(body))
	if err != nil {
		a.logf("coord-link: bad coordinator URL %q: %v", a.cfg.URL, err)
		return rpcFatal
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := a.client.Do(httpReq)
	if err != nil {
		a.logf("coord-link: %s: %v", path, err)
		return rpcRetryable
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		a.logf("coord-link: %s: reading response: %v", path, err)
		return rpcRetryable
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		if err := json.Unmarshal(raw, out); err != nil {
			a.logf("coord-link: %s: bad response body: %v", path, err)
			return rpcRetryable
		}
		return rpcOK
	case resp.StatusCode == http.StatusConflict,
		resp.StatusCode == http.StatusNotFound,
		resp.StatusCode == http.StatusGone:
		return rpcLeaseLost
	case resp.StatusCode >= 500:
		a.logf("coord-link: %s: %s: %s", path, resp.Status, firstLine(raw))
		return rpcRetryable
	default:
		a.logf("coord-link: %s: %s: %s", path, resp.Status, firstLine(raw))
		return rpcFatal
	}
}

func firstLine(raw []byte) string {
	var we wireError
	if json.Unmarshal(raw, &we) == nil && we.Error != "" {
		return we.Error
	}
	if len(raw) > 120 {
		raw = raw[:120]
	}
	return fmt.Sprintf("%q", raw)
}
