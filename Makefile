# Tier-1 gate: everything `make check` runs must stay green. CI and
# pre-merge verification use this target verbatim.

GO ?= go

.PHONY: check fmt build test race vet fuzz chaos bench bench-check bench-compare serve-smoke calibrate-smoke cluster-smoke obs-smoke qos-smoke soak soak-smoke leftovers clean

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

# Differential verification under fault injection: the conformance
# catalogue's differential oracle alone; deterministic for a fixed -seed.
chaos:
	$(GO) run ./cmd/hmm soak -seed 1 -iters 12 -oracles differential

# The smoke targets below drive their daemons with a built stress
# client (killing `go run` would leave its child alive) and trap
# EXIT/INT/TERM right after the daemons start, so an interrupted recipe
# cannot orphan them. A SIGKILLed recipe runs no trap, so every daemon
# also runs under `timeout -k 5 120`: whatever happens to the recipe,
# nothing it started outlives two minutes. timeout passes TERM
# on to its daemon, so killing the timeout pid stops the daemon.
SMOKE_TIMEOUT = timeout -k 5 120

# Boot hmmd, fire one request through the stress client's load-generator
# mode, and assert a 200 plus a non-empty /metrics scrape.
SMOKE_ADDR ?= 127.0.0.1:17117
serve-smoke:
	$(GO) build -o /tmp/hmmd-smoke ./cmd/hmmd
	$(GO) build -o /tmp/hmm-stress ./cmd/stress
	@$(SMOKE_TIMEOUT) /tmp/hmmd-smoke -addr $(SMOKE_ADDR) & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT INT TERM; \
	/tmp/hmm-stress -url http://$(SMOKE_ADDR) -requests 1 -c 1 -n 64 -p 64 -smoke; rc=$$?; \
	kill -TERM $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	rm -f /tmp/hmmd-smoke /tmp/hmm-stress; exit $$rc

# Cluster smoke: boot a coordinator and two worker processes, push a
# concurrent batch through the coordinator's HTTP front-end with the
# stress client's cluster mode (which first pins one response
# byte-identical to a local run), SIGKILL one worker mid-batch, and
# require every request to still answer 200 with at least one recorded
# failover and the worker gauge down to 1.
CLUSTER_HTTP ?= 127.0.0.1:17217
CLUSTER_ADDR ?= 127.0.0.1:17218
cluster-smoke:
	$(GO) build -o /tmp/hmmd-cluster ./cmd/hmmd
	$(GO) build -o /tmp/hmm-stress ./cmd/stress
	@$(SMOKE_TIMEOUT) /tmp/hmmd-cluster -role coordinator -addr $(CLUSTER_HTTP) -cluster-addr $(CLUSTER_ADDR) & cpid=$$!; \
	$(SMOKE_TIMEOUT) /tmp/hmmd-cluster -role worker -join $(CLUSTER_ADDR) -addr 127.0.0.1:0 -name w1 -workers 2 & w1t=$$!; \
	$(SMOKE_TIMEOUT) /tmp/hmmd-cluster -role worker -join $(CLUSTER_ADDR) -addr 127.0.0.1:0 -name w2 -workers 2 & w2pid=$$!; \
	trap 'kill $$cpid $$w1t $$w2pid 2>/dev/null' EXIT INT TERM; \
	for i in $$(seq 50); do w1pid=$$(pgrep -P $$w1t) && break; sleep 0.1; done; \
	[ -n "$$w1pid" ] || { echo "cluster-smoke: w1 worker process not found under timeout pid $$w1t" >&2; exit 1; }; \
	/tmp/hmm-stress -url http://$(CLUSTER_HTTP) -requests 12 -c 6 -n 192 -p 64 \
		-cluster 2 -kill-after 1 -kill-pid $$w1pid -smoke; rc=$$?; \
	kill -TERM $$cpid $$w2pid 2>/dev/null; kill -KILL $$w1pid 2>/dev/null; \
	wait $$cpid 2>/dev/null; wait $$w1t 2>/dev/null; wait $$w2pid 2>/dev/null; \
	rm -f /tmp/hmmd-cluster /tmp/hmm-stress; exit $$rc

# Observability smoke: boot hmmd with profiling on, serve one traced
# request, follow its X-Trace-Id to GET /v1/trace/{id}, validate the
# merged Chrome trace-event JSON (handler span + simulated timeline)
# and keep it as an artifact, and require /debug/pprof to answer. CI
# uploads OBS_TRACE so a failing run ships the evidence.
OBS_ADDR ?= 127.0.0.1:17317
OBS_TRACE ?= /tmp/hmmd-obs-trace.json
obs-smoke:
	$(GO) build -o /tmp/hmmd-obs ./cmd/hmmd
	$(GO) build -o /tmp/hmm-stress ./cmd/stress
	@$(SMOKE_TIMEOUT) /tmp/hmmd-obs -addr $(OBS_ADDR) -pprof & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT INT TERM; \
	/tmp/hmm-stress -url http://$(OBS_ADDR) -requests 1 -c 1 -n 64 -p 64 \
		-smoke -trace-out $(OBS_TRACE) -pprof-check; rc=$$?; \
	kill -TERM $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	rm -f /tmp/hmmd-obs /tmp/hmm-stress; exit $$rc

# QoS smoke: boot a coordinator (with the sample multi-tenant policy)
# and two workers, then race a paced interactive tenant against an
# unpaced best-effort flood with the stress client's tenants mode. The
# paced tenant must keep at least a 95% success rate while the flood is
# queued, shed or both, and /metrics must expose the hmmd_qos_* family.
QOS_HTTP ?= 127.0.0.1:17417
QOS_ADDR ?= 127.0.0.1:17418
QOS_CONF ?= cmd/hmmd/testdata/qos.json
qos-smoke:
	$(GO) build -o /tmp/hmmd-qos ./cmd/hmmd
	$(GO) build -o /tmp/hmm-stress ./cmd/stress
	@$(SMOKE_TIMEOUT) /tmp/hmmd-qos -role coordinator -addr $(QOS_HTTP) -cluster-addr $(QOS_ADDR) \
		-qos $(QOS_CONF) -workers 2 -queue 8 & cpid=$$!; \
	$(SMOKE_TIMEOUT) /tmp/hmmd-qos -role worker -join $(QOS_ADDR) -addr 127.0.0.1:0 -name w1 -workers 2 -qos $(QOS_CONF) & w1pid=$$!; \
	$(SMOKE_TIMEOUT) /tmp/hmmd-qos -role worker -join $(QOS_ADDR) -addr 127.0.0.1:0 -name w2 -workers 2 -qos $(QOS_CONF) & w2pid=$$!; \
	trap 'kill $$cpid $$w1pid $$w2pid 2>/dev/null' EXIT INT TERM; \
	/tmp/hmm-stress -url http://$(QOS_HTTP) -requests 24 -c 8 -n 192 -p 64 \
		-tenants "paced:interactive:20,flood:best-effort:0" -assert-success paced:0.95 -smoke; rc=$$?; \
	kill -TERM $$cpid $$w1pid $$w2pid 2>/dev/null; \
	wait $$cpid 2>/dev/null; wait $$w1pid 2>/dev/null; wait $$w2pid 2>/dev/null; \
	rm -f /tmp/hmmd-qos /tmp/hmm-stress; exit $$rc

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
