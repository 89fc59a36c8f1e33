// Package websim reproduces the paper's §5 shared-web-server experiment
// on the internal/sim substrate: three bulletin-board Web sites, each a
// prefork pool of server processes owned by a different user, driven by
// closed-loop clients. The paper runs Apache 2.0.48 + PHP serving the
// RUBBoS benchmark with a MySQL backend; this simulator preserves the
// structure that matters to ALPS — CPU-bound request handling with a
// database block in the middle, ~50 processes per site, CPU as the
// bottleneck — while replacing the HTTP/SQL machinery with a workload
// model.
//
// ALPS schedules each site as a single resource principal: CPU consumed
// by any of a user's processes counts against that user's allocation, and
// the whole group is suspended or resumed together. Membership is
// re-resolved once per second, as the paper's modified ALPS does via
// kvm_getprocs.
package websim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"alps/internal/core"
	"alps/internal/sim"
)

// SiteConfig describes one hosted Web site (one user of the shared
// server).
type SiteConfig struct {
	// Name labels the site in results.
	Name string
	// Servers is the prefork pool size (the paper configures Apache
	// with at most 50 processes per site).
	Servers int
	// Clients is the number of closed-loop clients driving the site
	// (the paper uses 325 per site).
	Clients int
	// Share is the site's ALPS share (ignored when ALPS is off).
	Share int64
}

// The request model's fixed parameters.
const (
	// cpuJitter is how far a request's CPU varies, uniformly, either
	// side of RequestCPU (as a fraction of it).
	cpuJitter = 0.3
	// dbWait is the mid-request block simulating the MySQL round trip.
	dbWait = 20 * time.Millisecond
	// thinkTime is the mean client think time between response and
	// next request.
	thinkTime = time.Second
	// quantum is the ALPS quantum (the paper uses 100 ms here).
	quantum = 100 * time.Millisecond
	// refreshEvery is the principal-membership refresh period (1 s in
	// the paper).
	refreshEvery = time.Second
)

// Config parameterizes a shared-web-server run.
type Config struct {
	Sites []SiteConfig
	// RequestCPU is the mean CPU time to serve one request, split into
	// two bursts around the database wait. Actual requests vary
	// ±cpuJitter uniformly.
	RequestCPU time.Duration
	// UseALPS enables an ALPS instance scheduling the sites as
	// resource principals with the configured shares.
	UseALPS bool
	// Warmup and Measure are the discarded and measured portions of
	// the run.
	Warmup  time.Duration
	Measure time.Duration
	// Seed drives request-size and think-time variation.
	Seed int64
}

// DefaultConfig returns the paper's §5 setup: three sites with shares
// 1:2:3, 50 servers and 325 clients each (the ALPS quantum is the
// constant quantum, the paper's 100 ms). The request cost is calibrated so the machine saturates at roughly 100
// requests/second, matching the paper's combined throughput (~99 req/s).
func DefaultConfig() Config {
	return Config{
		Sites: []SiteConfig{
			{Name: "site1", Servers: 50, Clients: 325, Share: 1},
			{Name: "site2", Servers: 50, Clients: 325, Share: 2},
			{Name: "site3", Servers: 50, Clients: 325, Share: 3},
		},
		RequestCPU: 10 * time.Millisecond,
		Warmup:     90 * time.Second,
		Measure:    120 * time.Second,
		Seed:       1,
	}
}

// SiteResult is one site's measured outcome.
type SiteResult struct {
	Name string
	// Throughput is requests per second completed during the
	// measurement window.
	Throughput float64
	// Completed counts requests finished during measurement.
	Completed int64
	// CPUSharePct is the site's percentage of the total workload CPU
	// consumed during measurement.
	CPUSharePct float64
	// Latency percentiles of request response time (queueing + service)
	// over the measurement window.
	LatencyP50, LatencyP95, LatencyP99 time.Duration
}

// Result is the outcome of a run.
type Result struct {
	Config Config
	Sites  []SiteResult
	// AlpsOverheadPct is ALPS CPU / wall for the whole run (0 when
	// ALPS is off).
	AlpsOverheadPct float64
}

// site is the runtime state of one hosted site.
type site struct {
	cfg       SiteConfig
	pids      []sim.PID
	queue     []request
	idle      []sim.PID
	byPID     map[sim.PID]*server
	done      int64
	cpuBase   time.Duration
	latencies []time.Duration
}

type request struct {
	arrived time.Duration
}

type server struct {
	pid     sim.PID
	st      *site
	ws      *world
	hasWork bool
	arrived time.Duration // arrival time of the in-flight request
	stage   int           // 0: need work; 1: ran first burst; 2: ran second burst
}

type world struct {
	k       *sim.Kernel
	cfg     Config
	rng     *rand.Rand
	sites   []*site
	measure bool
}

// Run executes the experiment and returns per-site throughput, the §5
// deliverable: under the kernel alone the sites share the CPU roughly
// evenly; under ALPS with shares 1:2:3 the throughput follows the shares.
func Run(cfg Config) (*Result, error) {
	if len(cfg.Sites) == 0 {
		return nil, fmt.Errorf("websim: no sites configured")
	}
	if cfg.RequestCPU <= 0 {
		return nil, fmt.Errorf("websim: RequestCPU must be positive")
	}
	w := &world{
		k:   sim.NewKernel(),
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	for _, sc := range cfg.Sites {
		st := &site{cfg: sc, byPID: make(map[sim.PID]*server)}
		for i := 0; i < sc.Servers; i++ {
			srv := &server{st: st, ws: w}
			pid := w.k.Spawn(fmt.Sprintf("%s-httpd%d", sc.Name, i), 0, srv)
			srv.pid = pid
			st.pids = append(st.pids, pid)
			st.byPID[pid] = srv
			st.idle = append(st.idle, pid)
		}
		w.sites = append(w.sites, st)
	}

	// Closed-loop clients: each issues its first request at a staggered
	// offset, then re-issues after think time once served.
	for si, sc := range cfg.Sites {
		for c := 0; c < sc.Clients; c++ {
			st := w.sites[si]
			off := time.Duration(w.rng.Int63n(int64(2 * time.Second)))
			w.k.At(off, func() { w.arrive(st) })
		}
	}

	var alps *sim.AlpsProc
	if cfg.UseALPS {
		tasks := make([]sim.AlpsTask, len(w.sites))
		for i, st := range w.sites {
			tasks[i] = sim.AlpsTask{ID: core.TaskID(i), Share: st.cfg.Share, Pids: st.pids}
		}
		var err error
		alps, err = sim.StartALPS(w.k, sim.AlpsConfig{
			Quantum:      quantum,
			Cost:         sim.PaperCosts(),
			RefreshEvery: refreshEvery,
			Refresh: func(k *sim.Kernel) map[core.TaskID][]sim.PID {
				// The pool is static here, but the refresh still
				// runs (and is charged) every period, as in §5.
				m := make(map[core.TaskID][]sim.PID, len(w.sites))
				for i, st := range w.sites {
					m[core.TaskID(i)] = st.pids
				}
				return m
			},
		}, tasks)
		if err != nil {
			return nil, err
		}
	}

	// Warm up, snapshot counters, measure.
	w.k.Run(cfg.Warmup)
	w.measure = true
	for _, st := range w.sites {
		st.done = 0
		st.cpuBase = w.siteCPU(st)
	}
	w.k.Run(cfg.Warmup + cfg.Measure)

	res := &Result{Config: cfg}
	var totalCPU time.Duration
	cpus := make([]time.Duration, len(w.sites))
	for i, st := range w.sites {
		cpus[i] = w.siteCPU(st) - st.cpuBase
		totalCPU += cpus[i]
	}
	for i, st := range w.sites {
		sr := SiteResult{
			Name:       st.cfg.Name,
			Completed:  st.done,
			Throughput: float64(st.done) / cfg.Measure.Seconds(),
		}
		if totalCPU > 0 {
			sr.CPUSharePct = 100 * float64(cpus[i]) / float64(totalCPU)
		}
		sr.LatencyP50, sr.LatencyP95, sr.LatencyP99 = percentiles(st.latencies)
		res.Sites = append(res.Sites, sr)
	}
	if alps != nil {
		res.AlpsOverheadPct = 100 * float64(alps.CPU()) / float64(w.k.Now())
	}
	return res, nil
}

// percentiles returns the 50th/95th/99th percentiles of a latency sample.
func percentiles(ls []time.Duration) (p50, p95, p99 time.Duration) {
	if len(ls) == 0 {
		return 0, 0, 0
	}
	s := append([]time.Duration(nil), ls...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(s)-1))
		return s[i]
	}
	return at(0.50), at(0.95), at(0.99)
}

func (w *world) siteCPU(st *site) time.Duration {
	var sum time.Duration
	for _, pid := range st.pids {
		if info, ok := w.k.Info(pid); ok {
			sum += info.CPU
		}
	}
	return sum
}

// arrive delivers one client request to a site: hand it to an idle server
// or queue it.
func (w *world) arrive(st *site) {
	now := w.k.Now()
	if n := len(st.idle); n > 0 {
		pid := st.idle[n-1]
		st.idle = st.idle[:n-1]
		srv := st.byPID[pid]
		srv.hasWork = true
		srv.arrived = now
		w.k.WakeProc(pid)
		return
	}
	st.queue = append(st.queue, request{arrived: now})
}

// complete finishes a request: account it and schedule the client's next
// arrival after think time.
func (w *world) complete(st *site, arrived time.Duration) {
	if w.measure {
		st.done++
		st.latencies = append(st.latencies, w.k.Now()-arrived)
	}
	think := time.Duration(w.rng.Int63n(int64(2 * thinkTime)))
	w.k.At(w.k.Now()+think, func() { w.arrive(st) })
}

// burst returns one jittered CPU burst (half a request's CPU).
func (w *world) burst() time.Duration {
	half := float64(w.cfg.RequestCPU) / 2
	j := 1 + cpuJitter*(2*w.rng.Float64()-1)
	return time.Duration(half * j)
}

// Next implements sim.Behavior: the prefork server loop.
func (s *server) Next(k *sim.Kernel, pid sim.PID) sim.Action {
	switch s.stage {
	case 0:
		if !s.hasWork {
			return sim.Action{Block: true}
		}
		// First CPU burst, then the database wait.
		s.stage = 1
		return sim.Action{Run: s.ws.burst(), Sleep: dbWait}
	case 1:
		// Second CPU burst; completion bookkeeping runs at its end.
		s.stage = 2
		arrived := s.arrived
		return sim.Action{Run: s.ws.burst(), OnDone: func(k *sim.Kernel) {
			s.ws.complete(s.st, arrived)
		}}
	default:
		// Pick up queued work or go idle.
		s.stage = 0
		s.hasWork = false
		if len(s.st.queue) > 0 {
			s.arrived = s.st.queue[0].arrived
			s.st.queue = s.st.queue[1:]
			s.hasWork = true
			return sim.Action{} // immediately continue to stage 0 with work
		}
		s.st.idle = append(s.st.idle, pid)
		return sim.Action{Block: true}
	}
}
