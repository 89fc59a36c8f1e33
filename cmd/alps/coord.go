package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"alps"
	"alps/internal/coord"
	"alps/internal/obs"
	"alps/internal/osproc"
	"alps/internal/tshist"
)

// Fleet mode. `alps coord` runs the coordinator; any scheduling mode
// (attach/spawn/user) becomes a shard of the fleet with -coord URL.
// Shards pull: the coordinator never initiates connections, so a shard
// behind NAT or a one-way firewall still participates, and coordinator
// loss degrades shards to their last-committed static shares instead of
// stopping them.

// startCoordLink attaches this shard to a coordinator: registers under
// a lease, heartbeats the observability stack's consumption gauges, and
// applies pulled assignments through the same diff-based reconfiguration
// path as /admin/config. Returns the agent (for /healthz) and a stop
// func.
func startCoordLink(r *alps.Runner, st *obsStack, url, shard string, capacity float64) (*coord.Agent, func(), error) {
	if shard == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "shard"
		}
		shard = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	agent, err := coord.NewAgent(coord.AgentConfig{
		URL:      url,
		Shard:    shard,
		Capacity: capacity,
		Tasks: func() []coord.TaskShare {
			var out []coord.TaskShare
			for _, t := range r.State().Tasks {
				out = append(out, coord.TaskShare{ID: int64(t.ID), Share: t.Share})
			}
			return out
		},
		Gauges: func() coord.ShardGauges {
			g := st.fleetGauges()
			g.Degraded = r.Health().Degraded()
			return g
		},
		Apply: func(a coord.Assignment) error {
			doc := configDoc{Quantum: a.Quantum}
			for _, ts := range a.Tasks {
				doc.Tasks = append(doc.Tasks, configTask{ID: ts.ID, Share: ts.Share})
			}
			rc, err := doc.toReconfig(r.State())
			if err != nil {
				return err
			}
			if emptyReconfig(rc) {
				return nil
			}
			return r.Reconfigure(rc)
		},
		Metrics: st.reg,
		Logf: func(format string, args ...any) {
			errlog.Info(fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("coordinator link: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		agent.Run(ctx)
	}()
	errlog.Info("coordinator link starting", "url", url, "shard", shard)
	return agent, func() { cancel(); <-done }, nil
}

// coordOpts are the flags of "alps coord". validate() enforces their
// contract before the listener opens: an out-of-range value is an error
// naming the flag, never a silent rewrite to a default (the server and
// planner treat 0 or less as "use the default") or an assignment every
// shard would reject.
type coordOpts struct {
	httpAddr      *string
	ttl           *time.Duration
	rebalance     *time.Duration
	state         *string
	quantum       *time.Duration
	gain          *float64
	deadband      *float64
	timelineEvery *time.Duration
}

func coordFlags(fs *flag.FlagSet) coordOpts {
	return coordOpts{
		httpAddr:      fs.String("http", "", "address to serve /coord/v1/*, /metrics and /healthz on (required, e.g. :7070)"),
		ttl:           fs.Duration("ttl", coord.DefaultTTL, "shard lease TTL; a shard silent past it is declared dead"),
		rebalance:     fs.Duration("rebalance", coord.DefaultRebalanceEvery, "rebalance period"),
		state:         fs.String("state", "", "checkpoint file for the committed share distribution"),
		quantum:       fs.Duration("q", 0, "fleet-wide quantum pushed with every assignment (0: shards keep their own)"),
		gain:          fs.Float64("gain", 0, "rebalance step clamp: one round moves a share by at most this factor, above 1 (0: default 2)"),
		deadband:      fs.Float64("deadband", 0, "global RMS share error below which no rebalance is committed (0: default 0.02)"),
		timelineEvery: fs.Duration("timeline-every", time.Second, "retained-history sampling cadence for /fleet/timeline (0 disables the fleet timeline)"),
	}
}

func (o coordOpts) validate() error {
	if *o.httpAddr == "" {
		return fmt.Errorf("-http is required (the coordinator is an HTTP server)")
	}
	for _, d := range []struct {
		flag string
		v    time.Duration
	}{{"-ttl", *o.ttl}, {"-rebalance", *o.rebalance}} {
		if d.v <= 0 {
			return fmt.Errorf("%s must be positive, got %v", d.flag, d.v)
		}
	}
	q := *o.quantum
	if q < 0 {
		return fmt.Errorf("-q must be zero (shards keep their own) or positive, got %v", q)
	}
	if q > 0 && q < osproc.ClockTick {
		return fmt.Errorf("-q %v is below the /proc accounting tick %v; every shard would reject the assignment", q, osproc.ClockTick)
	}
	if g := *o.gain; g != 0 && !(g > 1) {
		return fmt.Errorf("-gain must be zero (default 2) or above 1, got %v", g)
	}
	if d := *o.deadband; !(d >= 0) {
		return fmt.Errorf("-deadband must be zero (default 0.02) or positive, got %v", d)
	}
	if *o.timelineEvery < 0 {
		return fmt.Errorf("-timeline-every must be zero (timeline off) or positive, got %v", *o.timelineEvery)
	}
	return nil
}

func cmdCoord(args []string) error {
	fs := flag.NewFlagSet("coord", flag.ExitOnError)
	opts := coordFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := opts.validate(); err != nil {
		return err
	}
	weights := make(map[int64]int64)
	for _, a := range fs.Args() {
		idStr, wStr, ok := strings.Cut(a, ":")
		if !ok {
			return fmt.Errorf("bad id:weight %q", a)
		}
		id, err := strconv.ParseInt(idStr, 10, 64)
		if err != nil {
			return fmt.Errorf("bad principal id in %q: %v", a, err)
		}
		w, err := strconv.ParseInt(wStr, 10, 64)
		if err != nil || w <= 0 {
			return fmt.Errorf("bad weight in %q (must be a positive integer)", a)
		}
		weights[id] = w
	}

	srv, mux, err := newCoordinator(opts, weights)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *opts.httpAddr)
	if err != nil {
		return fmt.Errorf("coordinator listener on %s: %w", *opts.httpAddr, err)
	}
	hs := hardenedServer(mux)
	go func() { _ = hs.Serve(ln) }()
	errlog.Info("coordinator listening", "addr", ln.Addr().String(),
		"ttl", *opts.ttl, "rebalance", *opts.rebalance, "weights", len(weights))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv.Run(ctx)

	sctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = hs.Shutdown(sctx)
	return nil
}

// newCoordinator builds what "alps coord" serves: the server, its
// retained timeline when -timeline-every is positive, and the HTTP
// surface (/coord/v1/*, /metrics, /healthz and /fleet/timeline). The
// server's Tick drives the timeline, so samples follow its clock.
func newCoordinator(opts coordOpts, weights map[int64]int64) (*coord.Server, *http.ServeMux, error) {
	reg := obs.NewRegistry()
	var hist *tshist.Store
	if every := *opts.timelineEvery; every > 0 {
		hist = tshist.New(tshist.Config{Source: reg, Every: every})
	}
	srv, err := coord.NewServer(coord.ServerConfig{
		TTL:            *opts.ttl,
		RebalanceEvery: *opts.rebalance,
		Quantum:        *opts.quantum,
		Weights:        weights,
		StatePath:      *opts.state,
		Planner:        coord.PlannerConfig{Gain: *opts.gain, Deadband: *opts.deadband},
		Metrics:        reg,
		History:        hist,
		Logf: func(format string, args ...any) {
			errlog.Info(fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		return nil, nil, err
	}
	mux := obs.NewMux(reg, func() any { return srv.Status() }, nil)
	mux.Handle("/coord/v1/", srv)
	if hist != nil {
		mux.Handle("/fleet/timeline", hist.Handler())
	}
	return srv, mux, nil
}
