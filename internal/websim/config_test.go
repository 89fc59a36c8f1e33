package websim

import (
	"testing"
	"time"
)

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("no sites should error")
	}
	cfg := DefaultConfig()
	cfg.RequestCPU = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero RequestCPU should error")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if len(cfg.Sites) != 3 {
		t.Fatalf("sites = %d, want 3", len(cfg.Sites))
	}
	for i, s := range cfg.Sites {
		if s.Servers != 50 {
			t.Errorf("site %d servers = %d, want 50 (paper's Apache MaxClients)", i, s.Servers)
		}
		if s.Clients != 325 {
			t.Errorf("site %d clients = %d, want 325", i, s.Clients)
		}
		if s.Share != int64(i+1) {
			t.Errorf("site %d share = %d, want %d", i, s.Share, i+1)
		}
	}
}

// TestDeterministicSeeds: same seed → identical results; different seed →
// (almost surely) different completion counts.
func TestDeterministicSeeds(t *testing.T) {
	cfg := DefaultConfig()
	for i := range cfg.Sites {
		cfg.Sites[i].Servers = 8
		cfg.Sites[i].Clients = 40
	}
	cfg.Warmup = 10 * time.Second
	cfg.Measure = 20 * time.Second
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Sites {
		if a.Sites[i].Completed != b.Sites[i].Completed {
			t.Errorf("site %d: %d vs %d completions with same seed", i, a.Sites[i].Completed, b.Sites[i].Completed)
		}
	}
	cfg.Seed = 999
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Sites {
		if a.Sites[i].Completed != c.Sites[i].Completed {
			same = false
		}
	}
	if same {
		t.Log("different seeds produced identical counts (possible but unlikely)")
	}
}

// TestCPUSaturation: with the default request cost the machine is the
// bottleneck, as in the paper (the CPU was the Web server's bottleneck
// resource).
func TestCPUSaturation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Warmup = 20 * time.Second
	cfg.Measure = 30 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pct float64
	for _, s := range res.Sites {
		pct += s.CPUSharePct
	}
	if pct < 99.9 || pct > 100.1 {
		t.Errorf("CPU shares sum to %.2f%%", pct)
	}
	var tput float64
	for _, s := range res.Sites {
		tput += s.Throughput
	}
	// 10 ms mean CPU per request → saturation ≈ 100 req/s.
	if tput < 85 || tput > 105 {
		t.Errorf("total throughput %.1f req/s; expected ~100 at CPU saturation", tput)
	}
}
