package fleetobs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"alps/internal/obs"
	"alps/internal/trace"
)

// DefaultBundleCooldown is the minimum time between two correlated
// collections when BundlerConfig leaves Cooldown zero. Fleet anomalies
// cascade (one lease loss degrades shares everywhere); one collection
// already captures the episode.
const DefaultBundleCooldown = 10 * time.Second

// keepCollections bounds how many recent collections accept late
// uploads and stay browsable.
const keepCollections = 4

// DumpRequest asks fleet members for their trace window around an
// anomaly. It piggybacks on heartbeat responses — the coordinator never
// initiates connections — and Seq (the collection's open timestamp in
// nanoseconds) lets shards dedupe across retried heartbeats and
// coordinator restarts.
type DumpRequest struct {
	Seq    int64  `json:"seq"`
	Reason string `json:"reason"`
	Epoch  uint64 `json:"epoch"`
}

// DumpPayload is one member's upload to a correlated collection: its
// fleet event window plus (optionally) its local flight-recorder window
// anchored to the wall clock.
type DumpPayload struct {
	Shard          string      `json:"shard"`
	Seq            int64       `json:"seq"`
	Reason         string      `json:"reason"`
	Incarnation    uint64      `json:"incarnation,omitempty"`
	AnchorUnixNano int64       `json:"anchor_unix_nano,omitempty"`
	Fleet          []Event     `json:"fleet,omitempty"`
	Obs            []obs.Event `json:"obs,omitempty"`
}

// Source converts the payload into a merge input.
func (p DumpPayload) Source() trace.FleetSource {
	var anchor time.Time
	if p.AnchorUnixNano != 0 {
		anchor = time.Unix(0, p.AnchorUnixNano)
	}
	return trace.FleetSource{
		Name:   p.Shard,
		Spans:  SpansOf(p.Fleet),
		Obs:    p.Obs,
		Anchor: anchor,
	}
}

// BundlerConfig parameterizes a Bundler.
type BundlerConfig struct {
	// Dir is where bundles land ("" keeps them in memory only, still
	// downloadable via /debug/fleet-trace).
	Dir string
	// Cooldown is the minimum time between collections
	// (DefaultBundleCooldown when 0; negative disables rate limiting).
	Cooldown time.Duration
	// Self, if set, contributes the coordinator's own window to each
	// collection at open time.
	Self func() trace.FleetSource
	// Now overrides time.Now.
	Now func() time.Time
	// Logf, if set, receives bundle write diagnostics.
	Logf func(format string, args ...any)
}

// collection is one correlated fleet dump in progress (or complete).
type collection struct {
	req     DumpRequest
	opened  time.Time
	members map[string]trace.FleetSource
}

// Bundler runs correlated flight recording on the coordinator: Open
// starts a collection when an anomaly fires, Pending piggybacks the
// request on every heartbeat response, Accept folds member uploads into
// a fleet-<reason>-<epoch>/ bundle on disk, and ServeHTTP serves the
// latest merged trace as /debug/fleet-trace.
type Bundler struct {
	cfg BundlerConfig
	now func() time.Time

	opened     atomic.Int64
	suppressed atomic.Int64
	uploads    atomic.Int64

	mu         sync.Mutex
	recent     *obs.Ring[*collection]
	lastOpen   time.Time
	everOpened bool
}

// NewBundler builds a bundler.
func NewBundler(cfg BundlerConfig) *Bundler {
	if cfg.Cooldown == 0 {
		cfg.Cooldown = DefaultBundleCooldown
	}
	now := time.Now
	if cfg.Now != nil {
		now = cfg.Now
	}
	return &Bundler{cfg: cfg, now: now, recent: obs.NewRing[*collection](keepCollections)}
}

// Open starts a collection for the given anomaly unless one opened
// within the cooldown. It reports whether a new collection began.
func (b *Bundler) Open(reason string, epoch uint64) bool {
	at := b.now()
	b.mu.Lock()
	if b.cfg.Cooldown > 0 && b.everOpened && at.Sub(b.lastOpen) < b.cfg.Cooldown {
		b.mu.Unlock()
		b.suppressed.Add(1)
		return false
	}
	b.lastOpen = at
	b.everOpened = true
	c := &collection{
		req:     DumpRequest{Seq: at.UnixNano(), Reason: reason, Epoch: epoch},
		opened:  at,
		members: make(map[string]trace.FleetSource),
	}
	if b.cfg.Self != nil {
		self := b.cfg.Self()
		c.members[self.Name] = self
	}
	b.recent.Push(c)
	b.mu.Unlock()
	b.opened.Add(1)
	b.flush(c)
	return true
}

// Pending returns the latest collection's request for heartbeat
// piggybacking (nil before the first collection). Shards dedupe by Seq,
// so returning it on every heartbeat is idempotent. Called on every
// heartbeat, so the never-collected fleet — the steady state — answers
// from an atomic without touching the mutex.
func (b *Bundler) Pending() *DumpRequest {
	if b.opened.Load() == 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.recent.Len() == 0 {
		return nil
	}
	req := b.recent.Newest(0).req
	return &req
}

// Accept folds one member upload into its collection. Unknown sequence
// numbers (a collection already rotated out) are dropped with an error.
func (b *Bundler) Accept(p DumpPayload) error {
	b.mu.Lock()
	var c *collection
	for i := b.recent.Len() - 1; i >= 0; i-- {
		if cand := b.recent.Newest(i); cand.req.Seq == p.Seq {
			c = cand
			break
		}
	}
	if c == nil {
		b.mu.Unlock()
		return fmt.Errorf("fleetobs: no open collection with seq %d", p.Seq)
	}
	c.members[p.Shard] = p.Source()
	b.mu.Unlock()
	b.uploads.Add(1)
	b.flush(c)
	b.writeMember(c, p)
	return nil
}

// sources returns a collection's members sorted coordinator-first.
func (b *Bundler) sources(c *collection) []trace.FleetSource {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]trace.FleetSource, 0, len(c.members))
	for _, src := range c.members {
		out = append(out, src)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Coordinator != out[j].Coordinator {
			return out[i].Coordinator
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Last returns the latest collection's request and member sources.
func (b *Bundler) Last() (DumpRequest, []trace.FleetSource, bool) {
	b.mu.Lock()
	if b.recent.Len() == 0 {
		b.mu.Unlock()
		return DumpRequest{}, nil, false
	}
	c := b.recent.Newest(0)
	b.mu.Unlock()
	return c.req, b.sources(c), true
}

// Collections returns how many collections have been opened.
func (b *Bundler) Collections() int64 { return b.opened.Load() }

// Uploads returns how many member payloads have been accepted.
func (b *Bundler) Uploads() int64 { return b.uploads.Load() }

// Register exposes the bundler's bookkeeping on a metrics registry.
func (b *Bundler) Register(reg *obs.Registry) {
	reg.CounterFunc("alps_fleet_collections_total",
		"Correlated fleet trace collections opened.", b.opened.Load)
	reg.CounterFunc("alps_fleet_collections_suppressed_total",
		"Collection triggers suppressed by the cooldown.", b.suppressed.Load)
	reg.CounterFunc("alps_fleet_dump_uploads_total",
		"Member trace windows uploaded to collections.", b.uploads.Load)
}

func (b *Bundler) dirFor(c *collection) string {
	return filepath.Join(b.cfg.Dir, fmt.Sprintf("fleet-%s-%d", c.req.Reason, c.req.Epoch))
}

func (b *Bundler) logf(format string, args ...any) {
	if b.cfg.Logf != nil {
		b.cfg.Logf(format, args...)
	}
}

// flush rewrites the collection's merged fleet trace on disk.
func (b *Bundler) flush(c *collection) {
	if b.cfg.Dir == "" {
		return
	}
	dir := b.dirFor(c)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		b.logf("fleetobs: bundle dir %s: %v", dir, err)
		return
	}
	path := filepath.Join(dir, "fleet.json")
	err := writeFile(path, func(f *os.File) error {
		return trace.WriteFleet(f, b.sources(c), map[string]any{
			"reason": c.req.Reason, "epoch": c.req.Epoch, "seq": c.req.Seq,
		})
	})
	if err != nil {
		b.logf("fleetobs: write %s: %v", path, err)
	}
}

// writeMember stores one member's raw payload next to the merged trace.
func (b *Bundler) writeMember(c *collection, p DumpPayload) {
	if b.cfg.Dir == "" {
		return
	}
	path := filepath.Join(b.dirFor(c), p.Shard+".json")
	err := writeFile(path, func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		return enc.Encode(p)
	})
	if err != nil {
		b.logf("fleetobs: write %s: %v", path, err)
	}
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// ServeHTTP serves the latest collection's merged trace as a
// downloadable Chrome trace — the /debug/fleet-trace endpoint.
func (b *Bundler) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	req, sources, ok := b.Last()
	if !ok {
		http.Error(w, "no fleet collection yet", http.StatusNotFound)
		return
	}
	trace.SetJSONDownloadHeaders(w.Header(),
		fmt.Sprintf("fleet-%s-%d.json", req.Reason, req.Epoch))
	_ = trace.WriteFleet(w, sources, map[string]any{
		"reason": req.Reason, "epoch": req.Epoch, "seq": req.Seq,
	})
}
