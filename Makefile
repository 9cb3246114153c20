# Tier-1 gate: everything `make check` runs must stay green. CI and
# pre-merge verification use this target verbatim.

GO ?= go

.PHONY: check fmt build test race vet fuzz chaos bench bench-check bench-compare calibrate-smoke soak soak-smoke leftovers clean

check: fmt vet build test race server-race bench-check

# Every tracked Go file (bench/ included) must be gofmt-clean.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...
	$(GO) build -o /dev/null ./cmd/hmmd

# The serving subsystem is concurrency-heavy; run its tests under the
# race detector even in quick local loops (check also runs the full
# -race sweep).
.PHONY: server-race
server-race:
	$(GO) test -race ./internal/server ./cmd/hmmd

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The benchmark is its own module (bench/go.mod), invisible to ./...;
# everything it compiles against is API, so vet and test it here.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -race ./...

# Short fuzz pass over the collective, matrix, layout and codec targets (seed corpus +
# 10s of exploration each); not part of check, run before touching the
# collectives.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/collective -run XXX -fuzz FuzzAllGatherShapes -fuzztime $(FUZZTIME)
	$(GO) test ./internal/collective -run XXX -fuzz FuzzAllToAllShapes -fuzztime $(FUZZTIME)
	$(GO) test ./internal/collective -run XXX -fuzz FuzzReduceShapes -fuzztime $(FUZZTIME)
	$(GO) test ./internal/collective -run XXX -fuzz FuzzReduceScatterShapes -fuzztime $(FUZZTIME)
	$(GO) test ./internal/matrix -run XXX -fuzz FuzzMulAddDifferential -fuzztime $(FUZZTIME)
	$(GO) test ./internal/matrix -run XXX -fuzz FuzzGridBlockRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/layout -run XXX -fuzz FuzzScatterGather -fuzztime $(FUZZTIME)
	$(GO) test ./internal/calibrate -run XXX -fuzz FuzzProfileParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -run XXX -fuzz FuzzTraceContext -fuzztime $(FUZZTIME)
	$(GO) test ./internal/qos -run XXX -fuzz FuzzQoSConfigParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run XXX -fuzz FuzzDecodeMatmul -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run XXX -fuzz FuzzWriteMatmul -fuzztime $(FUZZTIME)

# Differential verification under fault injection: the conformance
# catalogue's differential oracle alone; deterministic for a fixed -seed.
chaos:
	$(GO) run ./cmd/hmm soak -seed 1 -iters 12 -oracles differential

# Run the calibration pipeline end to end on a small grid and require
# a valid, assertion-clean profile: the fit must stay within a generous
# error bound and the empirical region maps must agree with the
# analytic ones on at least half the cells at both paper settings.
CALIBRATE_OUT ?= /tmp/hmmd-calibration-smoke.json
calibrate-smoke:
	$(GO) run ./cmd/hmm calibrate -ns 16,32 -ps 4,16,64 \
		-assert-maxerr 0.5 -assert-maxdiff 0.5 -o $(CALIBRATE_OUT)
	@test -s $(CALIBRATE_OUT) || { echo "calibrate-smoke: empty profile"; exit 1; }
	@rm -f $(CALIBRATE_OUT)

# Conformance smoke: a short deterministic soak run, executed twice with
# the same seed, whose transcripts must be byte-identical and clean.
# This is the PR-gate slice of the nightly soak job.
SOAK_SEED ?= 1
soak-smoke:
	$(GO) build -o /tmp/hmm-soak ./cmd/hmm
	/tmp/hmm-soak soak -seed $(SOAK_SEED) -iters 8 > /tmp/hmm-soak-1.txt
	/tmp/hmm-soak soak -seed $(SOAK_SEED) -iters 8 > /tmp/hmm-soak-2.txt
	cmp /tmp/hmm-soak-1.txt /tmp/hmm-soak-2.txt
	@rm -f /tmp/hmm-soak /tmp/hmm-soak-1.txt /tmp/hmm-soak-2.txt

# Full soak: run the conformance engine under a wall-clock budget,
# writing any minimized repros (and Chrome traces of the failing
# schedules) into SOAK_DIR for upload as CI artifacts. Nightly CI calls
# this with a date-derived seed so each night explores new cases while
# staying replayable.
SOAK_BUDGET ?= 10m
SOAK_DIR ?= soak-artifacts
soak:
	$(GO) run ./cmd/hmm soak -seed $(SOAK_SEED) -budget $(SOAK_BUDGET) -repros $(SOAK_DIR)

# The repo's benchmark (BENCHMARK.json): five workloads, end-to-end and
# per-layer metrics, written to bench/out/result.json (~2.5 min; see
# bench/README.md). bench-compare checks result B against result A
# under BENCHMARK.json's bounds; A and B may be comma-separated lists,
# compared by their medians.
bench:
	bash bench/run.sh

bench-compare:
	bash bench/run.sh --compare $(A) $(B)

# List every process a benchmark, smoke recipe or test run left alive
# (daemons, load generators, test binaries); exit 1 if there is one.
# Run it last: a clean tree leaves nothing behind.
leftovers:
	@if ps -eo pid,cmd | grep -E 'hmmd|hmmbench|hmm-|stress|soak|\.test' | grep -v -e grep -e 'make leftovers'; then exit 1; fi

clean:
	$(GO) clean ./...
