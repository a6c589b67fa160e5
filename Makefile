GO ?= go

.PHONY: all build test race lint lint-fix-report commvet bench bench-quick calibrate experiments plasmad plasmarouter plasmad-smoke plasmad-recovery-smoke plasmad-cluster-smoke store-faults clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race detector is load-bearing (goroutine-per-rank runtime); the
# experiments sweep is excluded because it is >10x slower under -race.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v /internal/experiments)

commvet:
	$(GO) build -o bin/commvet ./cmd/commvet

# lint runs the project's own SPMD/determinism vettool on every package,
# then staticcheck if it is installed (CI installs it; locally it is
# optional so `make lint` works offline with just the Go toolchain).
lint: commvet
	$(GO) vet -vettool=$$PWD/bin/commvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2025.1)"; \
	fi

# lint-fix-report runs commvet standalone and groups the findings by
# analyzer (triage view: fix one class of problem at a time). Exits
# nonzero when there is anything to fix, so it doubles as a gate.
lint-fix-report:
	$(GO) run ./cmd/commvet -report ./...

# bench writes BENCH_<date>.json: the reproducible benchmark matrix over
# the plume case (rank counts x exchange strategies, fixed seed). See the
# cmd/bench doc comment for the output schema. bench-quick is the CI smoke
# variant.
bench:
	$(GO) run ./cmd/bench

bench-quick:
	$(GO) run ./cmd/bench -quick

# calibrate fits cost-model unit costs from a BENCH file and writes
# CALIBRATION.json; plasmasim/plasmad load it with -calibration.
calibrate:
	@test -n "$(BENCH)" || { echo "usage: make calibrate BENCH=BENCH_file.json"; exit 2; }
	$(GO) run ./cmd/bench -calibrate $(BENCH)

# experiments prints every paper table and figure of the reduced sweep
# (EXPERIMENTS.md quotes it); use -preset full for the paper-scale ranks.
experiments:
	$(GO) run ./cmd/experiments -id all -preset quick

# plasmad is the simulation-serving daemon (HTTP job API, priority queue,
# deterministic result cache — see internal/serve and the README).
plasmad:
	$(GO) build -o bin/plasmad ./cmd/plasmad

# plasmad-smoke runs the end-to-end daemon lifecycle check: submit, poll,
# cache-hit re-submit, /metrics, SIGTERM drain.
plasmad-smoke:
	sh scripts/plasmad_smoke.sh

# plasmad-recovery-smoke SIGKILLs a durable daemon mid-run and proves the
# restart replays the journal, requeues the interrupted job, and serves
# the finished one byte-identically from the on-disk cache.
plasmad-recovery-smoke:
	sh scripts/plasmad_recovery_smoke.sh

# plasmarouter is the stateless shard router fronting several plasmad
# daemons (rendezvous routing + cluster-wide result coalescing — see
# internal/cluster).
plasmarouter:
	$(GO) build -o bin/plasmarouter ./cmd/plasmarouter

# plasmad-cluster-smoke runs two shards + a router over a shared results
# dir: cluster-wide coalescing (one world for N identical submissions via
# any entry point), frame streaming, owner SIGKILL → 503 + failover
# reads, restart → byte-identical replay.
plasmad-cluster-smoke:
	sh scripts/plasmad_cluster_smoke.sh

# store-faults runs the persistence layer's deterministic disk-fault
# matrix (torn writes, ENOSPC, fsync failures, crashes) under -race.
store-faults:
	$(GO) test -race -count=1 ./internal/store/...

clean:
	rm -rf bin
