package coord

import (
	"time"

	"alps/internal/metrics"
	"alps/internal/obs"
)

// rmsWindow is the number of rebalance rounds the windowed global RMS
// share error sums consumption over. One round is a single heartbeat
// window per shard — noisy; eight rounds smooth per-window jitter
// without hiding real drift.
const rmsWindow = 8

// stableStreak is how many consecutive no-change rounds declare the
// fleet converged after a disturbance.
const stableStreak = 2

// trackedCommits bounds the per-epoch propagation bookkeeping: acks for
// epochs older than the newest 64 commits are no longer timed (a shard
// that far behind is the stall detector's problem, not latency's).
const trackedCommits = 64

// beatWindow bounds the ring of recent per-round RMS values behind the
// alps_fleet_rms_beat_ratio gauge.
const beatWindow = 32

// commitRec times one committed epoch's propagation to each shard.
type commitRec struct {
	epoch uint64
	at    time.Time
	acked map[string]bool
}

// fleetStats is the fleet-wide view of the §3.1 accuracy metric and of
// epoch propagation, kept beside the state it is computed from. The
// Server updates it under s.mu from each round's PlanResult, at each
// commit, and at each heartbeat that advances a shard's ack epoch.
type fleetStats struct {
	rounds    *obs.Ring[map[int64]float64] // per-round consumption, newest rmsWindow
	windowRMS float64                      // RMS of the summed window vs the newest round's targets
	ewma      metrics.EWMA                 // smoothed per-round RMS
	beats     *obs.Ring[float64]           // recent per-round RMS values

	// Convergence: a round that moved shares is a disturbance;
	// stableStreak unchanged rounds after one declare the fleet
	// converged and record how many rounds it took.
	converged  bool
	disturbed  int // rounds since the disturbance began
	stable     int // consecutive unchanged rounds
	convRounds int // rounds the previous disturbance took to settle

	commits   *obs.Ring[commitRec]
	propCount int64
	propMax   float64
	propHist  *obs.Histogram // nil without a registry
}

func newFleetStats() fleetStats {
	return fleetStats{
		rounds:    obs.NewRing[map[int64]float64](rmsWindow),
		beats:     obs.NewRing[float64](beatWindow),
		converged: true,
		commits:   obs.NewRing[commitRec](trackedCommits),
	}
}

// round folds one rebalance round. The per-round RMS is Plan's own
// GlobalRMS; the windowed RMS sums the last rmsWindow rounds'
// consumption and measures it against this round's target set, so a
// dead shard's principals stop shaping the fleet error once their
// capacity is redistributed. A round that carries no share-error signal
// moves no estimator.
func (f *fleetStats) round(res PlanResult) {
	f.rounds.Push(res.Consumed)
	sum := make(map[int64]float64)
	for i := f.rounds.Len() - 1; i >= 0; i-- {
		for p, v := range f.rounds.Newest(i) {
			sum[p] += v
		}
	}
	c := make([]float64, 0, len(res.Weights))
	w := make([]float64, 0, len(res.Weights))
	for p, wt := range res.Weights {
		c = append(c, sum[p])
		w = append(w, wt)
	}
	if rms, ok := metrics.ShareError(nil, c, w); ok {
		f.windowRMS = rms
	}
	if res.GlobalRMS >= 0 {
		f.ewma.Add(res.GlobalRMS)
		f.beats.Push(res.GlobalRMS)
	}

	switch {
	case res.Changed:
		if f.converged {
			f.converged = false
			f.disturbed = 0
		}
		f.disturbed++
		f.stable = 0
	case !f.converged:
		f.disturbed++
		f.stable++
		if f.stable >= stableStreak {
			f.converged = true
			f.convRounds = f.disturbed
		}
	}
}

// commit records a committed epoch so later acks can be timed.
func (f *fleetStats) commit(epoch uint64, at time.Time) {
	f.commits.Push(commitRec{epoch: epoch, at: at, acked: make(map[string]bool)})
}

// ack times the propagation of every tracked commit the shard's new ack
// epoch covers for the first time.
func (f *fleetStats) ack(shard string, ackEpoch uint64, at time.Time) {
	for i := f.commits.Len() - 1; i >= 0; i-- {
		c := f.commits.Newest(i)
		if c.epoch > ackEpoch || c.acked[shard] {
			continue
		}
		c.acked[shard] = true
		lat := max(at.Sub(c.at).Seconds(), 0)
		f.propCount++
		f.propMax = max(f.propMax, lat)
		if f.propHist != nil {
			f.propHist.Observe(lat)
		}
	}
}

// beatRatio is (max-min)/mean over the recent per-round RMS values.
func (f *fleetStats) beatRatio() float64 { return metrics.BeatRatio(f.beats.Snapshot()) }
