# Standard entry points for the fldrl reproduction. Everything is plain
# `go` underneath; the targets just pin the invocations CI and reviewers
# should use.

GO ?= go

.PHONY: all build test race vet bench bench-hot bench-compare bench-hier bench-train bench-constrained bench-smoke fuzz profile quick serve-smoke bench-serving same-output clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector — the parallel rollout,
# kernel, and experiment pools must stay clean here.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# bench runs the figure and kernel benchmarks; -cpu 1,4 exposes the
# parallel kernels' scaling (results are bit-identical at every width).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x -cpu 1,4 .

# Packages holding the hot-path benchmarks: trace engine + env step
# (results/BENCH_trace.json) and the float64 tensor kernels.
BENCH_HOT_PKGS = ./internal/trace ./internal/env ./internal/tensor

# bench-hot runs the hot-path benchmarks at measurement length.
bench-hot:
	$(GO) test -run xxx -bench . -benchtime 200ms $(BENCH_HOT_PKGS)

# bench-compare snapshots the hot-path benchmarks into bench.new (rotating
# the previous snapshot to bench.old) and, when benchstat is installed,
# diffs the two — run once before a perf change and once after.
bench-compare:
	@if [ -f bench.new ]; then mv bench.new bench.old; fi
	$(GO) test -run xxx -bench . -benchtime 200ms -count 5 $(BENCH_HOT_PKGS) | tee bench.new
	@if command -v benchstat >/dev/null 2>&1; then \
		if [ -f bench.old ]; then benchstat bench.old bench.new; \
		else echo "bench-compare: baseline recorded; rerun after your change to diff"; fi; \
	else \
		echo "bench-compare: benchstat not installed (go install golang.org/x/perf/cmd/benchstat@latest); raw output in bench.new"; \
	fi

# bench-hier measures the hierarchical federation engine: flat barrier vs
# two-tier sync vs cohort/semi-async rounds at N=100k and N=1M (the numbers
# tracked in results/BENCH_hier.json). Snapshots into bench-hier.new
# (rotating the previous run to bench-hier.old) and diffs with benchstat
# when installed.
bench-hier:
	@if [ -f bench-hier.new ]; then mv bench-hier.new bench-hier.old; fi
	$(GO) test -run xxx -bench . -benchtime 2s ./internal/hier | tee bench-hier.new
	@if command -v benchstat >/dev/null 2>&1; then \
		if [ -f bench-hier.old ]; then benchstat bench-hier.old bench-hier.new; \
		else echo "bench-hier: baseline recorded; rerun after your change to diff"; fi; \
	else \
		echo "bench-hier: benchstat not installed (go install golang.org/x/perf/cmd/benchstat@latest); raw output in bench-hier.new"; \
	fi

# bench-train measures the data-parallel training engine: PPO/A2C updates
# at -cpu 1 (single-core kernel speed, the number tracked in
# results/BENCH_train.json) plus the sharded update at Workers>1 — results
# are bit-identical at every worker count, only wall-clock moves. Snapshots
# into bench-train.new (rotating the previous run to bench-train.old) and
# diffs with benchstat when installed.
bench-train:
	@if [ -f bench-train.new ]; then mv bench-train.new bench-train.old; fi
	$(GO) test -run xxx -bench 'BenchmarkPPOUpdate|BenchmarkA2CUpdate' -cpu 1 -count 5 -benchtime 20x . | tee bench-train.new
	@if command -v benchstat >/dev/null 2>&1; then \
		if [ -f bench-train.old ]; then benchstat bench-train.old bench-train.new; \
		else echo "bench-train: baseline recorded; rerun after your change to diff"; fi; \
	else \
		echo "bench-train: benchstat not installed (go install golang.org/x/perf/cmd/benchstat@latest); raw output in bench-train.new"; \
	fi

# bench-constrained measures the Lagrangian constrained-PPO update against
# the plain PPO update on the same 256-sample paper-scale batch shape — the
# constrained-path overhead (fused cost-critic waves + multiplier step)
# tracked in results/BENCH_constrained.json. Results are bit-identical at
# every worker count (TestConstrainedPPOUpdateWorkerInvariance) and the
# steady state stays allocation-free (TestConstrainedPPOUpdateSteadyStateAllocs).
# Snapshots into bench-constrained.new (rotating the previous run to
# bench-constrained.old) and diffs with benchstat when installed.
bench-constrained:
	@if [ -f bench-constrained.new ]; then mv bench-constrained.new bench-constrained.old; fi
	$(GO) test -run xxx -bench BenchmarkConstrainedPPOUpdate -cpu 1 -count 5 -benchtime 20x ./internal/rl | tee bench-constrained.new
	$(GO) test -run xxx -bench 'BenchmarkPPOUpdate$$' -cpu 1 -count 5 -benchtime 20x . | tee -a bench-constrained.new
	@if command -v benchstat >/dev/null 2>&1; then \
		if [ -f bench-constrained.old ]; then benchstat bench-constrained.old bench-constrained.new; \
		else echo "bench-constrained: baseline recorded; rerun after your change to diff"; fi; \
	else \
		echo "bench-constrained: benchstat not installed (go install golang.org/x/perf/cmd/benchstat@latest); raw output in bench-constrained.new"; \
	fi

# bench-smoke runs each perfbench workload for one second (train-testbed
# and sim-hier once more with tracing on) and fails unless every run's last
# line reports "correct":true and "failed":0: the benchmark's own output
# checks, i.e. sim's 1-vs-2-worker bit identity, the train replica's
# bit-for-bit episode costs, and the serve counter reconciliation and drain.
BENCH_SMOKE_RUNS = train-testbed:0 sim-hier:0 serve-testbed:0 serve-fleet:0 train-testbed:1 sim-hier:1

bench-smoke:
	@for run in $(BENCH_SMOKE_RUNS); do \
		w=$${run%:*}; tr=$${run#*:}; \
		last=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace $$tr | tail -n 1); \
		echo "$$w --trace $$tr: $$last"; \
		case "$$last" in *'"correct":true'*'"failed":0,'*) ;; \
		*) echo "bench-smoke: $$w --trace $$tr is not correct or has failed operations"; exit 1;; esac; \
	done

# fuzz exercises the parse/sanitize/decode fuzz targets and the
# upload-finish solve (go's native fuzzer runs one target per invocation).
# Raise FUZZTIME for a deeper run. The agent decoder's seeds are ~1 KB of
# gob, which the minimizer would spend up to a minute per new input on; the
# decide-request target's spliced inputs grow to KBs and stall it the same
# way (0 execs/s for 30 s and more of a 60 s run).
FUZZTIME ?= 30s

fuzz:
	$(GO) test -run xxx -fuzz FuzzReadCSV -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run xxx -fuzz FuzzUploadFinish -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run xxx -fuzz FuzzUnmarshalAgent -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/core
	$(GO) test -run xxx -fuzz FuzzSanitize -fuzztime $(FUZZTIME) ./internal/guard
	$(GO) test -run xxx -fuzz FuzzParseLine -fuzztime $(FUZZTIME) ./internal/guard
	$(GO) test -run xxx -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/server
	$(GO) test -run xxx -fuzz FuzzParseTenantSpecs -fuzztime $(FUZZTIME) ./internal/server

# serve-smoke boots flserver, fires an flload burst (with chaos requests
# mixed in), bounds the client p99, and checks the daemon drains cleanly
# with zero dropped in-flight requests. scripts/serve_smoke.sh owns the
# process wrangling.
serve-smoke: build
	./scripts/serve_smoke.sh

# bench-serving runs the measurement-length load (the ≥1M decisions/min
# number tracked in results/BENCH_serving.json).
bench-serving: build
	./scripts/serve_smoke.sh -bench

# same-output checks that a change alters no arithmetic: it builds fltrain
# and flexperiments from PARENT (a checkout of the parent commit, made with
# git clone or git archive) and from this tree, and compares the saved
# agents, CSVs and tables byte for byte (scripts/same_output.sh).
same-output:
	@if [ -z "$(PARENT)" ]; then echo "usage: make same-output PARENT=<parent checkout>"; exit 2; fi
	./scripts/same_output.sh $(PARENT)

# profile runs a short profiled training workload; inspect with
#   go tool pprof cpu.pprof / mem.pprof   and   go tool trace exec.trace
profile: build
	$(GO) run ./cmd/fltrain -episodes 25 -o /tmp/fldrl-profile-agent.gob \
		-cpuprofile cpu.pprof -memprofile mem.pprof -trace exec.trace

# quick regenerates every table at smoke-test sizes.
quick:
	$(GO) run ./cmd/flexperiments -quick

clean:
	$(GO) clean ./...
