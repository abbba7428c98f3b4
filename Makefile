# Standard entry points for the fldrl reproduction. Everything is plain
# `go` underneath; the targets just pin the invocations CI and reviewers
# should use.

GO ?= go

.PHONY: all build test race vet bench bench-smoke fuzz profile quick serve-smoke same-output clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector — the rollout,
# update-engine, hier and experiment pools must stay clean here.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# bench runs the figure and kernel benchmarks; -cpu 1,4 exposes the rollout
# and update pools' scaling (results are bit-identical at every width).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x -cpu 1,4 .

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

# fuzz exercises the parse/sanitize/decode fuzz targets, the snapshot and
# checkpoint loaders and the upload-finish solve (go's native fuzzer runs
# one target per invocation). Raise FUZZTIME for a deeper run. The agent
# file decoder's JSON seeds are 0.6-0.8 KB, which the minimizer would
# spend up to a minute per new input on; the decide-request and response
# targets' spliced inputs grow to KBs and stall it the same way (0 execs/s
# for 30 s and more of a 60 s run); the checkpoint loader's JSON seeds are
# ~2.6 KB.
FUZZTIME ?= 30s

fuzz:
	$(GO) test -run xxx -fuzz FuzzReadCSV -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run xxx -fuzz FuzzUploadFinish -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run xxx -fuzz FuzzUnmarshalAgent -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/core
	$(GO) test -run xxx -fuzz FuzzLoadCheckpoint -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/core
	$(GO) test -run xxx -fuzz FuzzSanitize -fuzztime $(FUZZTIME) ./internal/guard
	$(GO) test -run xxx -fuzz FuzzParseLine -fuzztime $(FUZZTIME) ./internal/guard
	$(GO) test -run xxx -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/server
	$(GO) test -run xxx -fuzz FuzzEncodeDecideResponse -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/server
	$(GO) test -run xxx -fuzz FuzzParseTenantSpecs -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run xxx -fuzz FuzzRestoreSnapshot -fuzztime $(FUZZTIME) ./internal/server

# serve-smoke boots flserver, fires an flload burst (with chaos requests
# mixed in), bounds the client p99, and checks the daemon drains cleanly
# with zero dropped in-flight requests. scripts/serve_smoke.sh owns the
# process wrangling.
serve-smoke: build
	./scripts/serve_smoke.sh

# same-output checks that a change alters no arithmetic: it builds fltrain,
# flsim, flexperiments and flserver from PARENT (a checkout of the parent
# commit, made with git clone or git archive) and from this tree, and
# compares the saved agents, CSVs, tables and a fixed serving sequence's
# responses, audits and snapshot byte for byte (scripts/same_output.sh).
same-output:
	@if [ -z "$(PARENT)" ]; then echo "usage: make same-output PARENT=<parent checkout>"; exit 2; fi
	./scripts/same_output.sh $(PARENT)

# profile runs a short profiled training workload; inspect with
#   go tool pprof cpu.pprof / mem.pprof   and   go tool trace exec.trace
profile: build
	$(GO) run ./cmd/fltrain -episodes 25 -o /tmp/fldrl-profile-agent.json \
		-cpuprofile cpu.pprof -memprofile mem.pprof -trace exec.trace

# quick regenerates every table at smoke-test sizes.
quick:
	$(GO) run ./cmd/flexperiments -quick

clean:
	$(GO) clean ./...
