# Local targets mirror .github/workflows/ci.yml step for step, so local
# runs and CI can't drift: CI simply calls these targets.

GO ?= go

# Serving benchmarks guarded against throughput regressions (inst/s).
# The iteration count trades CI time for measurement-window length: 3000
# iterations of the fastest benchmarks finish in ~10ms and mostly measure
# scheduler noise; 20000 keeps every window past ~50ms.
SERVING_BENCH ?= Serve|ServiceThroughput|Replay
SERVING_ITERS ?= 20000x
BENCH_TOLERANCE ?= 0.20

.PHONY: all build vet test bench-check race bench fuzz-smoke chaos smoke torture cover bench-serving bench-guard bench-e2e bench-ladder bench-pairs profile-serving loc ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi

test: bench-check
	$(GO) test ./...

# The end-to-end yardstick (bench/, BENCHMARK.json) is its own module that
# imports repro/internal/..., so `./...` never compiles it: vet and test it
# here, or an internal/ change that breaks its build goes unnoticed until
# someone runs the benchmark.
bench-check:
	$(GO) vet -C bench .
	$(GO) test -C bench .

# internal/runtime, internal/client, internal/hist, internal/load and
# internal/server are the concurrent core (instance mailboxes, run queue,
# the multiplexed dfbin connection, the lock-free latency histogram, the
# load pacer's closed-loop chains, the eval countdown that runs on service
# workers) and their interleavings differ with the number of Ps: on top of
# the default GOMAXPROCS they run at 1, 2 and 4. internal/server runs on
# its own: beside it, the runtime's millisecond cluster deadlines miss
# under the race detector.
RACE_CPUS ?= 1,2,4
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu $(RACE_CPUS) ./internal/runtime ./internal/client ./internal/hist ./internal/load
	$(GO) test -race -cpu $(RACE_CPUS) ./internal/server

# Smoke-run every benchmark once; catches bit-rot without burning CI time.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Short fuzzing passes: the three-valued expression evaluator (random
# trees + partial environments vs an independent reference evaluator),
# the dfbin wire codec (JSON/binary differential round trip, plus
# truncated/corrupt frames asserting clean errors, never panics), the
# registry WAL record codec and the eval-capture record codec (decode
# never panics, every failure is classified torn-vs-corrupt, every
# success re-encodes identically), and the eval path's JSON codec with
# encoding/json as its oracle: request decode and response decode agree
# with it on accept/reject and on every value for arbitrary bytes, request
# encode and result encode are byte-identical to json.Marshal.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzEval3$$' -fuzztime=10s ./internal/expr
	$(GO) test -run='^$$' -fuzz='^FuzzBinaryJSONDifferential$$' -fuzztime=5s ./internal/api
	$(GO) test -run='^$$' -fuzz='^FuzzBinaryFrameDecode$$' -fuzztime=5s ./internal/api
	$(GO) test -run='^$$' -fuzz='^FuzzWALRecordDecode$$' -fuzztime=5s ./internal/api
	$(GO) test -run='^$$' -fuzz='^FuzzCaptureRecordDecode$$' -fuzztime=5s ./internal/api
	$(GO) test -run='^$$' -fuzz='^FuzzBatchRequestDecode$$' -fuzztime=5s ./internal/api
	$(GO) test -run='^$$' -fuzz='^FuzzBatchRequestEncode$$' -fuzztime=5s ./internal/api
	$(GO) test -run='^$$' -fuzz='^FuzzBatchResponseDecode$$' -fuzztime=5s ./internal/api
	$(GO) test -run='^$$' -fuzz='^FuzzEvalResultEncode$$' -fuzztime=5s ./internal/server

# Deterministic chaos suite: kill/stall/degrade cluster replicas mid-run
# and assert the oracle invariant, work conservation, and launch-exact
# billing under -race. The seed matrix is fixed inside the tests; -count=1
# defeats the test cache so every invocation really re-runs the faults.
chaos:
	$(GO) test -race -count=1 -cpu $(RACE_CPUS) -run 'TestChaos' ./internal/runtime

# End-to-end binary smoke: build the real dfsd and dfserve binaries,
# launch the daemon (HTTP + dfbin listeners), drive it with `dfserve
# -remote` over both wires, SIGTERM it under in-flight binary load, and
# assert the graceful drain flushed everything. TestSmokeRestart then
# cycles the daemon over one -datadir — register, load, SIGTERM,
# relaunch, re-drive without re-registering — plus the SIGKILL and
# torn-WAL-tail crash variants. TestSmokePeerFleet boots a 3-process
# -peers fleet, drives load through one node, rolling-restarts every
# node in turn under SLO assertions, and requires every drain clean.
# TestSmokeCaptureReplay closes the record/replay loop: dfsd -capture
# records 5k mixed-tenant instances over both wires, a SIGTERM seals the
# capture, a fresh daemon comes up, and dfreplay re-issues the capture
# live on both wires demanding zero digest divergence — plus two virtual
# replays that must print bit-identical combined digests.
smoke:
	$(GO) test -count=1 -run 'TestSmokeBinaries|TestSmokeRestart|TestSmokePeerFleet|TestSmokeCaptureReplay' ./cmd/dfsd

# Crash-consistency torture: real dfsd processes with DFSD_FAILPOINTS
# crash failpoints armed at every WAL site (append write/sync, the whole
# snapshot sequence, the log reset, plus torn appends cut at random byte
# offsets), killed mid-registration and restarted, asserting acked ⇒
# recovered bit-identical and in-flight ⇒ exact-content-or-absent. The
# default is the one-cycle-per-site subset CI runs (<60s);
# TORTURE_FULL=1 runs the full randomized sweep (≥50 cycles).
torture:
	$(GO) test -count=1 -run 'TestTortureCrashConsistency' ./cmd/dfsd

# Coverage across every package; cover.out is the CI artifact, the
# function summary line is the human-readable take-away. cmd/dfsd is
# excluded: its only test is the binary e2e smoke (`make smoke` just ran
# it), which execs separate processes and contributes zero coverage.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic $$($(GO) list ./... | grep -v '^repro/cmd/dfsd$$')
	$(GO) tool cover -func=cover.out | tail -1

# Run the serving benchmarks at a fixed iteration count and record the
# results as BENCH_serving.json (throughput, hit rates, batch shape).
bench-serving:
	$(GO) test -run='^$$' -bench='$(SERVING_BENCH)' -benchtime=$(SERVING_ITERS) ./internal/runtime ./internal/server . > bench-serving.out
	$(GO) run ./cmd/benchguard -in bench-serving.out -out BENCH_serving.json

# Fail when any serving benchmark's inst/s regressed more than
# BENCH_TOLERANCE vs the committed baseline. Refresh the baseline by
# copying BENCH_serving.json over BENCH_baseline.json in the same change
# that justifies the shift.
#
# The default guards machine-independent ratios (each benchmark vs the
# same run's serving ceiling), so `make ci` passes on any hardware. On
# the machine that recorded the baseline, `make bench-guard
# BENCH_NORMALIZE=` switches to absolute throughput, which also catches
# uniform slowdowns the ratio mode cannot see.
#
# A flagged measurement is re-taken once before failing: a real
# regression reproduces, a scheduler glitch on a busy runner does not.
BENCH_NORMALIZE ?= BenchmarkServeQuickstartPSE100
BENCH_GUARD_CMD = $(GO) run ./cmd/benchguard -current BENCH_serving.json -baseline BENCH_baseline.json -tolerance $(BENCH_TOLERANCE) $(if $(BENCH_NORMALIZE),-normalize $(BENCH_NORMALIZE))
bench-guard: bench-serving
	$(BENCH_GUARD_CMD) || { \
		echo "bench-guard: regression reported; re-measuring once to rule out runner noise"; \
		$(MAKE) bench-serving && $(BENCH_GUARD_CMD); }

# The committed end-to-end benchmark (BENCHMARK.json, bench/README.md):
# builds and execs the real dfsd, four workloads, three fingerprinted
# repeats (~6 min). In CI it is a correctness gate — every answer checked
# against the oracle, conservation, clean drain — and its result file is an
# artifact; runner numbers are not comparable across machines, so for a
# perf claim run it at the parent commit with `-o before.json` and
# `-compare` on one box.
bench-e2e:
	$(GO) run -C bench . -repeat 3

# The traced run of the same benchmark: per-layer metrics, outside-in
# spans and the 12-rung CPU-time cost ladder for all four workloads
# (~4 min). This is where a perf PR reads which rung to spend next and
# shows, rung by rung, where its saving landed.
bench-ladder:
	$(GO) run -C bench . --trace 1

# The evidence a perf claim needs (ROADMAP, "numbers are only comparable
# within one machine"): N alternating parent/change pairs of the same
# benchmark, the working tree against a `git archive` export of PARENT,
# printed as per-metric medians, quartiles and pair wins. ~1 min per run:
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=shared_zipf N=10
# WORKLOAD empty runs all four; ARGS passes flags to both sides
# (ARGS='-trace 1' adds the per-layer metrics).
PARENT ?= HEAD
N ?= 10
bench-pairs:
	$(GO) run ./cmd/benchpairs -parent '$(PARENT)' -workload '$(WORKLOAD)' -n $(N) -args '$(ARGS)'

# Capture CPU/heap pprof profiles of the serving hot path: the closed-loop
# serving benchmarks of quickstart and the 64-node pattern, PROFILE_N
# instances each, one profile pair per benchmark. CI uploads prof/ with the
# bench output as workflow artifacts, so every perf PR leaves a profile
# trail for regression archaeology:
#   go tool pprof prof/runtime.test prof/serve-quickstart-cpu.pprof
PROFILE_N ?= 200000
PROFILE_BENCH = $(GO) test -run '^$$' -benchtime $(PROFILE_N)x -o prof/runtime.test ./internal/runtime
profile-serving:
	mkdir -p prof
	$(PROFILE_BENCH) -bench 'ServeQuickstartPSE100$$' -cpuprofile prof/serve-quickstart-cpu.pprof -memprofile prof/serve-quickstart-mem.pprof
	$(PROFILE_BENCH) -bench 'ServePattern64PSE100$$' -cpuprofile prof/serve-pattern-cpu.pprof -memprofile prof/serve-pattern-mem.pprof

# Non-test Go lines, the tracked number of ROADMAP's North-star goal 2:
# raw lines of every *.go file except *_test.go, for the root module (all
# of it but bench/), for bench/ (its own module), and per internal/ package.
GO_LOC = find $(1) -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
loc:
	@printf '%8d  root module\n' $$(find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)
	@printf '%8d  bench/\n' $$($(call GO_LOC,bench))
	@for d in internal/*/; do printf '%8d  %s\n' $$($(call GO_LOC,$$d)) $$d; done

ci: build vet test race bench fuzz-smoke chaos smoke torture cover bench-guard profile-serving bench-e2e
