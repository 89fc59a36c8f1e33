package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"alps/internal/core"
	"alps/internal/metrics"
	"alps/internal/obs"
	"alps/internal/trace"
	"alps/internal/tshist"
)

// runTimeline demonstrates — and gates — the closed observability loop
// on retained history. A synthetic duty-cycled workload (one task
// bursting its whole entitlement every dutyPeriod cycles, its peer
// filling the rest) is audited over a fixed window deliberately coprime
// with the duty period, so the raw windowed RMS share-error gauge
// aliases — it beats between phase-dependent values while the schedule
// is perfectly fair — and the auditor's EWMA-over-windows estimator
// (alps_audit_rms_share_error_ewma) smooths the beat away.
//
// Every cycle the auditor's registry is sampled into a tshist store —
// the same retained-history path /debug/timeline serves — and the beat
// statistics are computed from the stored series, exactly as a timeline
// consumer would. Two hard gates fail the run:
//
//   - the EWMA estimator must cut the steady-state beat ratio of the raw
//     gauge by at least 5x (the aliasing fix must actually work), and
//   - one history sample over a production-shaped registry must cost at
//     most 1% of a 10ms quantum (retention must be too cheap to matter).
//
// The FFT-free autocorrelation detector must also find the beat period
// in the raw series (a multiple of the duty period) — that detection is
// what lets an operator read "your window is aliasing" off a timeline.
// Results merge into BENCH_obs.json under "timeline", preserving the
// keys the obs experiment wrote.
func runTimeline() error {
	cycles := 400
	samplerIters := 20_000
	if *quick {
		cycles = 160
		samplerIters = 4_000
	}
	const (
		dutyPeriod = 4 // cycles per duty period of the synthetic workload
		rawWindow  = 5 // coprime with dutyPeriod: maximal aliasing
		tail       = 64
		q          = 10 * time.Millisecond
		rounds     = 5
	)

	audReg := obs.NewRegistry()
	audited := trace.NewAuditor(trace.AuditorConfig{Window: rawWindow})
	audited.Register(audReg)
	hist := tshist.New(tshist.Config{Source: audReg, Capacity: cycles})

	// One synthetic cycle: task 1 burns 2s every dutyPeriod-th cycle,
	// task 2 spreads the same 2s over the other three. Shares are 1:1
	// and long-run consumption is equal, so every nonzero RMS reading is
	// measurement artifact, not unfairness.
	epoch := time.Now()
	for k := 0; k < cycles; k++ {
		var c1, c2 time.Duration
		if k%dutyPeriod == 0 {
			c1 = 2 * time.Second
		} else {
			c2 = 2 * time.Second / 3
		}
		audited.OnCycle(core.CycleRecord{
			Index:  k,
			Length: time.Second,
			Tasks: []core.CycleTask{
				{ID: 1, Share: 1, Consumed: c1},
				{ID: 2, Share: 1, Consumed: c2},
			},
		})
		hist.Sample(epoch.Add(time.Duration(k) * time.Second))
	}

	// Read the verdict off the retained series, the way a /debug/timeline
	// consumer would, keeping only the steady-state tail (the EWMA needs
	// a few periods to settle).
	series := func(name string) []float64 {
		vals := tshist.Values(hist.SeriesPoints(name, ""))
		if len(vals) > tail {
			vals = vals[len(vals)-tail:]
		}
		return vals
	}
	rawRMS := series("alps_audit_rms_share_error")
	ewmaRMS := series("alps_audit_rms_share_error_ewma")

	rawBeat := metrics.BeatRatio(rawRMS)
	ewmaBeat := metrics.BeatRatio(ewmaRMS)
	reduction := math.Inf(1)
	if ewmaBeat > 0 {
		reduction = rawBeat / ewmaBeat
	}
	lag, corr := tshist.DominantPeriod(rawRMS, 4*dutyPeriod)
	detected := lag > 0 && lag%dutyPeriod == 0 && corr >= 0.5

	// History-sampler overhead over a production-shaped registry: the
	// full cmd/alps gauge surface (auditor + flight recorder) plus the
	// per-task share-error histograms a 32-task run accumulates.
	reg := obs.NewRegistry()
	aud := trace.NewAuditor(trace.AuditorConfig{})
	aud.Register(reg)
	trace.NewRecorder(trace.RecorderConfig{}).Register(reg)
	for i := 0; i < 32; i++ {
		reg.Histogram(fmt.Sprintf(`alps_share_error_ratio{task="%d"}`, i),
			"bench fill", obs.RatioBuckets).Observe(0.1)
	}
	store := tshist.New(tshist.Config{Source: reg})
	nSeries := len(reg.Snapshot())
	cpuNow := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var sampleNs float64
	for round := 0; round < rounds; round++ {
		for i := 0; i < samplerIters/10; i++ { // warmup
			store.Sample(epoch)
		}
		start := cpuNow()
		for i := 0; i < samplerIters; i++ {
			store.Sample(epoch)
		}
		ns := float64(cpuNow()-start) / float64(samplerIters)
		if sampleNs == 0 || ns < sampleNs {
			sampleNs = ns
		}
	}
	samplePct := 100 * sampleNs / float64(q.Nanoseconds())

	report := struct {
		Cycles              int     `json:"cycles"`
		DutyPeriodCycles    int     `json:"duty_period_cycles"`
		RawWindowCycles     int     `json:"raw_window_cycles"`
		RawBeatRatio        float64 `json:"raw_beat_ratio"`
		EWMABeatRatio       float64 `json:"ewma_beat_ratio"`
		BeatReductionX      float64 `json:"beat_reduction_x"`
		BeatReduced5x       bool    `json:"beat_reduced_5x"`
		DetectedBeatPeriod  int     `json:"detected_beat_period_cycles"`
		BeatAutocorrelation float64 `json:"beat_autocorrelation"`
		BeatDetected        bool    `json:"beat_detected"`
		SamplerSeries       int     `json:"sampler_series"`
		SamplerNsPerSample  float64 `json:"sampler_ns_per_sample"`
		SamplerPctOfQuantum float64 `json:"sampler_pct_of_quantum"`
		SamplerWithin1Pct   bool    `json:"sampler_within_1pct"`
	}{
		Cycles:              cycles,
		DutyPeriodCycles:    dutyPeriod,
		RawWindowCycles:     rawWindow,
		RawBeatRatio:        rawBeat,
		EWMABeatRatio:       ewmaBeat,
		BeatReductionX:      reduction,
		BeatReduced5x:       reduction >= 5,
		DetectedBeatPeriod:  lag,
		BeatAutocorrelation: corr,
		BeatDetected:        detected,
		SamplerSeries:       nSeries,
		SamplerNsPerSample:  sampleNs,
		SamplerPctOfQuantum: samplePct,
		SamplerWithin1Pct:   samplePct <= 1,
	}

	fmt.Printf("Aliasing-free audit windows over retained history (%d cycles, duty period %d, window %d)\n",
		cycles, dutyPeriod, rawWindow)
	fmt.Printf("  raw windowed RMS beat ratio:     %.4f\n", rawBeat)
	fmt.Printf("  EWMA estimator beat ratio:       %.4f  (%.1fx reduction, gate >= 5x)\n", ewmaBeat, reduction)
	fmt.Printf("  autocorrelation beat detection:  period %d cycles, corr %.2f (duty period %d)\n",
		lag, corr, dutyPeriod)
	fmt.Printf("  history sampler: %d series, %.0f ns/sample = %.4f%% of Q=%v (gate <= 1%%)\n",
		nSeries, sampleNs, samplePct, q)

	// Merge under "timeline" so the obs experiment's keys survive (and
	// vice versa); a missing or unreadable file starts a fresh document.
	dir := *out
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_obs.json")
	doc := map[string]any{}
	if raw, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(raw, &doc)
	}
	doc["timeline"] = report
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s (timeline section)\n", path)

	if !report.BeatReduced5x {
		return fmt.Errorf("EWMA estimator cut the beat ratio only %.1fx (raw %.4f -> ewma %.4f); gate is 5x",
			reduction, rawBeat, ewmaBeat)
	}
	if !detected {
		return fmt.Errorf("autocorrelation missed the beat: period %d, corr %.2f (want a multiple of %d with corr >= 0.5)",
			lag, corr, dutyPeriod)
	}
	if !report.SamplerWithin1Pct {
		return fmt.Errorf("history sampler costs %.4f%% of the quantum (gate 1%%)", samplePct)
	}
	return nil
}
