# Standard checks for the ALPS repository. `make check` is the
# pre-commit gate: gofmt, vet, build, the full test suite under the race
# detector (every fault-injection test is deterministic and fake-backed,
# so -race adds coverage without flakiness), the tests that build only
# without it (alloc-gate, golden), and bench-check, so that a change
# removing a name bench/ still uses fails here, not in the benchmark's
# build. Every test runs at least once.

GO ?= go

.PHONY: check fmt vet build test race short bench bench-check alloc-gate golden trace examples chaos chaos-fleet vulncheck loc knobs

check: fmt vet build race alloc-gate golden bench-check

# Fails, listing them, if gofmt would rewrite any Go file.
fmt:
	@test -z "$$(gofmt -l . | tee /dev/stderr)"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fast loop: skips the end-to-end tests that spawn real processes.
short:
	$(GO) test -short ./...

# Benchmarks, each writing a JSON report into $(REPORTS), which git
# ignores and alps-bench creates, so a run leaves the tree clean (CI
# uploads the reports from there; BENCH_obs.json at the root is the
# committed record):
#   obs   — observer off vs on (no-op, metrics, flight recorder),
#           ns/quantum on the bare core and the runner loop, and the
#           cost of one history sample; fails if that sample costs
#           more than 1% of a 10ms quantum (BENCH_obs.json)
#   scale — control-loop cost vs fleet size, seed loop vs O(due)
#           loop; fails if the indexed loop regresses against
#           BENCH_scale_baseline.json and (full runs) if the auditor
#           gauges show <5x at N=1000 (BENCH_scale.json). The
#           zero-allocation and one-syscall-per-flip properties are
#           tests (alloc-gate; osproc's group signaling test).
# QUICK=1 trims iterations for CI.
REPORTS := .bench_build/reports

bench:
	$(GO) run ./cmd/alps-bench $(if $(QUICK),-quick) -out $(REPORTS) obs
	$(GO) run ./cmd/alps-bench $(if $(QUICK),-quick) -out $(REPORTS) scale

# The real-process benchmark (bench/, run by bench/run.sh) is a separate
# module, so the root `go test ./...` never compiles it although it drives
# obs, trace and tshist directly. Vet (not build: `go build` would drop a
# bench binary into bench/) and run its short tests, which spawn no
# processes.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# Alloc-regression gate. Runs without -race (race instrumentation
# allocates on the hot path) and fails the moment a steady-state quantum
# of the indexed loop heap-allocates at all, on FaultSys at N = 300 and
# N = 5000 or over real processes sampled through RealSys.
alloc-gate:
	$(GO) test -run 'TestSteadyStateZeroAllocs|TestRealSamplingZeroAllocs' -count=1 ./internal/osproc/

# Golden simulated outputs: every simulated alps-bench experiment, run
# with -quick, must print its cmd/alps-bench/testdata/quick file byte for
# byte. Without -race: the simulator is single-threaded, and the race
# build only makes the runs ten times slower.
golden:
	$(GO) test -run 'TestQuickOutputsGolden' -count=1 ./cmd/alps-bench/

# Trace smoke: run the built-in demo scenario through the simulator and
# emit TRACE_sim.json as Chrome trace-event JSON. alps-sim validates the
# trace before writing it, so a non-zero exit means the tracing pipeline
# regressed; the file opens directly in Perfetto (ui.perfetto.dev).
trace:
	$(GO) run ./cmd/alps-sim -chrome TRACE_sim.json
	@echo "wrote TRACE_sim.json (open in https://ui.perfetto.dev)"

# Example smoke: run each simulated example to completion; any non-zero
# exit fails the target. examples/realos is left out because it spawns
# real processes for 10 s.
examples:
	@for ex in quickstart multiapp scientific webserver; do \
		echo "== examples/$$ex"; \
		$(GO) run ./examples/$$ex || exit 1; \
	done

# Crash/restart end-to-end suite under the race detector: SIGKILL the
# scheduler mid-run, restart from the -state file, require shares to
# reconverge and no workload process to be left SIGSTOPped; plus the
# restore-failure sweep and live-reconfig (SIGHUP + /admin/config)
# e2e tests. Spawns real processes; not part of `short`. For local
# runs: `race` runs the same tests, so CI runs them there.
chaos:
	$(GO) test -race -run 'TestChaos|TestRestoreFailure|TestAdminConfig' -v ./cmd/alps/

# Fleet chaos suite under the race detector: the coordsim scenario
# (4 shards + coordinator on an in-memory faulty network and a virtual
# clock — coordinator SIGKILLed mid-rebalance and restarted from its
# checkpoint, a shard partitioned and healed, a shard killed) plus the
# real-process fleet e2e (coordinator and shard as separate processes;
# the shard must attach, then degrade to static shares when the
# coordinator dies). The scenario writes the restarted coordinator's
# /fleet/timeline capture to TIMELINE_fleet.json (CI sets the same
# variable on its race step, which runs these tests, for the artifact).
# Deterministic except the final e2e, which spawns real busy loops; not
# part of `short`. For local runs.
chaos-fleet:
	ALPS_TIMELINE_OUT=$(CURDIR)/TIMELINE_fleet.json $(GO) test -race -run 'TestChaosFleet' -v ./internal/coord/
	$(GO) test -race -run 'TestFleetEndToEnd' -v ./cmd/alps/

# Line counts over tracked files only, so build output such as
# .bench_build/ never counts: non-test Go outside bench/, test Go outside
# bench/, and all Go in bench/.
loc:
	@echo "non-test Go outside bench/: $$(git ls-files -- '*.go' ':!:bench/*' ':!:*_test.go' | xargs -r cat | wc -l)"
	@echo "test Go outside bench/:     $$(git ls-files -- '*_test.go' ':!:bench/*' | xargs -r cat | wc -l)"
	@echo "Go in bench/:               $$(git ls-files -- 'bench/*.go' | xargs -r cat | wc -l)"

# Settable values: each exported struct named Config or ...Config in
# tracked non-test Go outside bench/, with its exported-field count, then
# the total.
knobs:
	@git ls-files -- '*.go' ':!:bench/*' ':!:*_test.go' | xargs -r awk ' \
		/^type ([A-Z][A-Za-z0-9]*)?Config struct \{/ { name = FILENAME " " $$2; n = 0; inside = 1; next } \
		inside && /^\}/ { printf "%-50s %d\n", name, n; total += n; inside = 0; next } \
		inside && /^\t[A-Z]/ { n++ } \
		END { print "exported Config fields: " total }'

# Known-vulnerability scan, gated on the tool being installed (the CI
# image may not ship it; we never install dependencies on the fly).
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi
