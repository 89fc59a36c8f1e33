package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"testing"
	"time"

	"alps/internal/coord"
	"alps/internal/tshist"
)

var coordListenRe = regexp.MustCompile(`msg="coordinator listening" addr=([0-9.:\[\]]+)`)

// waitFor polls cond every 50ms until it holds or the deadline passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestFleetEndToEnd runs a real coordinator process and a real shard
// (spawn mode with -coord), then checks the fleet wiring end to end:
// the shard registers and turns healthy on /healthz (attached, epoch,
// lease age), the coordinator's /coord/v1/status lists it with live
// gauges, the coordinator's /healthz is that same document, its
// timeline is served and the removed /fleet/* routes are gone, and
// killing the coordinator flips the shard's /healthz link block to
// degraded-to-static while scheduling carries on.
func TestFleetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("needs Linux /proc")
	}
	bin := filepath.Join(t.TempDir(), "alps")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Coordinator: short TTL and rebalance so the test sees leases move.
	coordCmd := exec.Command(bin, "coord", "-http", "127.0.0.1:0",
		"-ttl", "2s", "-rebalance", "500ms",
		"-state", filepath.Join(t.TempDir(), "coord.ckpt"),
		"0:3", "1:1")
	coordErr := &syncBuffer{}
	coordCmd.Stderr = coordErr
	if err := coordCmd.Start(); err != nil {
		t.Fatal(err)
	}
	coordDone := make(chan struct{})
	go func() { _ = coordCmd.Wait(); close(coordDone) }()
	defer func() {
		_ = coordCmd.Process.Kill()
		<-coordDone
	}()

	var coordAddr string
	waitFor(t, "coordinator listen announcement", 5*time.Second, func() bool {
		m := coordListenRe.FindStringSubmatch(coordErr.String())
		if m == nil {
			return false
		}
		coordAddr = m[1]
		return true
	})

	// Shard: two busy loops under shares 1:3, linked to the coordinator.
	shardCmd := exec.Command(bin, "spawn", "-q", "20ms", "-http", "127.0.0.1:0",
		"-coord", "http://"+coordAddr, "-shard", "e2e-shard",
		"-shares", "1,3", "--", "/bin/sh", "-c", "while :; do :; done")
	var shardOut bytes.Buffer
	shardErr := &syncBuffer{}
	shardCmd.Stdout = &shardOut
	shardCmd.Stderr = shardErr
	if err := shardCmd.Start(); err != nil {
		t.Fatal(err)
	}
	shardDone := make(chan struct{})
	go func() { _ = shardCmd.Wait(); close(shardDone) }()
	defer func() {
		_ = shardCmd.Process.Signal(syscall.SIGINT)
		select {
		case <-shardDone:
		case <-time.After(5 * time.Second):
			_ = shardCmd.Process.Kill()
		}
	}()

	var shardAddr string
	waitFor(t, "shard listen announcement", 5*time.Second, func() bool {
		m := listenRe.FindStringSubmatch(shardErr.String())
		if m == nil {
			return false
		}
		shardAddr = m[1]
		return true
	})

	getJSON := func(addr, path string, out any) error {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		return json.Unmarshal(body, out)
	}

	// /healthz on the shard grows a Coord block once the lease is held.
	type linkBlock struct {
		Attached       bool   `json:"attached"`
		LeaseAge       string `json:"lease_age"`
		DegradedStatic bool   `json:"degraded_static"`
	}
	var health struct {
		Ticks float64
		Coord *linkBlock
	}
	waitFor(t, "shard to attach to the coordinator", 10*time.Second, func() bool {
		if err := getJSON(shardAddr, "/healthz", &health); err != nil {
			return false
		}
		return health.Coord != nil && health.Coord.Attached && !health.Coord.DegradedStatic
	})
	if health.Coord.LeaseAge == "" {
		t.Errorf("attached link has no lease age: %+v", health.Coord)
	}

	// The coordinator's fleet status lists the shard with its gauges.
	var fleet struct {
		Shards []struct {
			Shard  string `json:"shard"`
			Gauges struct {
				Cycles int64 `json:"cycles"`
			} `json:"gauges"`
		} `json:"shards"`
	}
	waitFor(t, "coordinator to report live shard gauges", 10*time.Second, func() bool {
		if err := getJSON(coordAddr, "/coord/v1/status", &fleet); err != nil {
			return false
		}
		return len(fleet.Shards) == 1 && fleet.Shards[0].Shard == "e2e-shard" &&
			fleet.Shards[0].Gauges.Cycles > 0
	})

	// The coordinator's own metrics surface the fleet families.
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", coordAddr))
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"alps_coord_leases_active 1", "alps_coord_heartbeats_total",
		`alps_fleet_shard_stale{shard="e2e-shard"} 0`} {
		if !bytes.Contains(metricsBody, []byte(want)) {
			t.Errorf("coordinator /metrics missing %q:\n%s", want, metricsBody)
		}
	}
	// Families that only repeated an alps_coord_* fact are gone.
	for _, gone := range []string{"alps_fleet_term ", "alps_fleet_is_leader ", "alps_fleet_shards ",
		"alps_coord_term ", "alps_coord_is_leader ",
		"alps_fleet_lease_expiries_total ", "alps_fleet_counter_regressions_total ",
		"alps_fleet_global_rms_share_error_round ", "alps_fleet_registrations_total "} {
		if bytes.Contains(metricsBody, []byte(gone)) {
			t.Errorf("coordinator /metrics still exports %s", gone)
		}
	}

	// /healthz is the coordinator's one status document: the same
	// document as /coord/v1/status, fleet estimators and shard rows
	// included. Retry until no commit lands between the two reads.
	var healthDoc, statusDoc coord.FleetStatus
	waitFor(t, "/healthz and /coord/v1/status to agree", 10*time.Second, func() bool {
		if getJSON(coordAddr, "/healthz", &healthDoc) != nil || getJSON(coordAddr, "/coord/v1/status", &statusDoc) != nil {
			return false
		}
		return healthDoc.Epoch == statusDoc.Epoch && len(healthDoc.Shards) == 1 && len(statusDoc.Shards) == 1 &&
			healthDoc.Shards[0].Shard == statusDoc.Shards[0].Shard
	})
	if row := healthDoc.Shards[0]; row.Shard != "e2e-shard" || row.Stale || row.LeaseAgeSec < 0 {
		t.Errorf("/healthz shard row = %+v, want a fresh e2e-shard", row)
	}
	for path, want := range map[string]int{"/fleet/healthz": 404, "/fleet/metrics": 404, "/fleet/timeline": 200} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", coordAddr, path))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
		if path != "/fleet/timeline" {
			continue
		}
		var tl tshist.Timeline
		if err := json.Unmarshal(body, &tl); err != nil || tl.Samples == 0 {
			t.Errorf("/fleet/timeline is not a sampled timeline (err %v): %.200s", err, body)
		}
	}

	// Kill the coordinator. The shard must keep scheduling on its last
	// shares and report degraded-to-static on /healthz.
	_ = coordCmd.Process.Kill()
	<-coordDone
	waitFor(t, "shard to report degraded-to-static", 15*time.Second, func() bool {
		if err := getJSON(shardAddr, "/healthz", &health); err != nil {
			return false
		}
		return health.Coord != nil && health.Coord.DegradedStatic
	})
	ticksAtDegrade := health.Ticks
	waitFor(t, "shard to keep scheduling without the coordinator", 5*time.Second, func() bool {
		if err := getJSON(shardAddr, "/healthz", &health); err != nil {
			return false
		}
		return health.Ticks > ticksAtDegrade
	})
}
