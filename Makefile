GO ?= go

.PHONY: check vet fmt lint build test race fuzz bench bench10k bench100k benchstat benchab chaos cover smoke timing-smoke health-smoke

check: lint build test race

vet:
	$(GO) vet ./...

# fmt fails when any file needs gofmt (lists the offenders).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

lint: vet fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages whose code runs on more than one goroutine: the engine's
# shard fan-out (sim, parallel) and what runs on its shards (the fault
# injector, the provenance tracer, the self-stabilizing clustering in
# cluster), the observability layer, the protocols' chaos and soak tests
# with Workers above 1 (core), and RunGrid's replication pool
# (experiment).
race:
	$(GO) test -race ./internal/sim/... ./internal/parallel/... ./internal/obs/... ./internal/faults/... ./internal/provenance/... \
		./internal/core/... ./internal/cluster/... ./internal/experiment/...

# Coverage floors for the observability surfaces — the metrics/event layer
# and the provenance tracer are pure bookkeeping, so low coverage there
# means untested accounting — and for the hierarchy maintenance layer
# (internal/cluster plus the self-stabilizing protocol underneath it),
# whose repair paths only fire under faults and so are easy to leave
# untested. The floor is a ratchet — raise it when the packages grow,
# never lower it.
COVER_FLOOR_OBS ?= 85
COVER_FLOOR_PROV ?= 85
COVER_FLOOR_CLUSTER ?= 90
cover:
	@for pkg in obs provenance cluster; do \
		case $$pkg in obs) floor=$(COVER_FLOOR_OBS);; provenance) floor=$(COVER_FLOOR_PROV);; *) floor=$(COVER_FLOOR_CLUSTER);; esac; \
		$(GO) test -coverprofile=cover.$$pkg.out ./internal/$$pkg/... >/dev/null || exit 1; \
		pct=$$($(GO) tool cover -func=cover.$$pkg.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}'); \
		echo "internal/$$pkg coverage: $$pct% (floor $$floor%)"; \
		ok=$$(awk -v p="$$pct" -v f="$$floor" 'BEGIN {print (p >= f) ? 1 : 0}'); \
		if [ "$$ok" != "1" ]; then echo "internal/$$pkg below coverage floor"; exit 1; fi; \
	done

# Seeded randomized fault soak: hundreds of random fault plans (loss,
# bursts, duplication, crashes, recoveries, head kills) against the
# resilient protocols, plus the arrival-mode soak (TestChaosArrivals):
# random steady/bursty/hotspot/capped traffic processes layered on random
# fault plans, with token-conservation checks. Half the runs in both
# soaks swap the oracle hierarchy for the self-stabilizing clustering
# protocol (Options.SelfStabilize with randomized OrphanAfter/Watchdog),
# so the emergent-repair path soaks under the same randomized fault and
# traffic plans as the oracle path. Every run sets a stall
# watchdog, so the campaign terminates even when a plan kills the whole
# network; the -timeout is a hard backstop for the "must never hang"
# guarantee. Override CHAOS_RUNS / CHAOS_SEED to steer the campaign.
CHAOS_RUNS ?= 256
chaos:
	CHAOS_RUNS=$(CHAOS_RUNS) CHAOS_SEED=$(CHAOS_SEED) \
		$(GO) test -run 'TestChaos' -count=1 -v -timeout 10m ./internal/core/

fuzz:
	$(GO) test -fuzz=FuzzRead -fuzztime=30s ./internal/trace
	$(GO) test -fuzz=FuzzDecode -fuzztime=30s ./internal/wire

# The engine hot-path benchmarks behind BENCH_PR2.json and BENCH_PR4.json:
# a 1000-node (T, L)-HiNet run — cached, uncached, and with the provenance
# tracer attached (BenchmarkHiNet1kTraced records the tracing-on overhead;
# plain BenchmarkHiNet1k must hold the PR 2 allocation-free numbers, since
# a nil tracer takes none of the tracing paths; BenchmarkHiNet1kTimed does
# the same for the timing layer and emits per-stage <stage>-ns/op metrics).
# Everything is seeded, so runs are reproducible; -benchmem reports the
# allocation profile the arena and the stability-window cache are
# accountable for.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkHiNet1k' -benchmem -count 3 .

# The 10x scaling suite behind BENCH_PR5.json: the full 10000-node pipeline
# (adversary generation, CSR trace recording, run) for Alg1 at the Theorem-1
# budget and Alg2 to completion, plus the k-scaling variants (k=256, 4096)
# and BenchmarkHiNet10kLossy, the guard on delivery's per-sender Drop path.
bench10k:
	$(GO) test -run '^$$' -bench 'BenchmarkHiNet10k' -benchmem -count 3 -timeout 2h .

# The 100k streaming suite behind BENCH_PR10.json: the adversary runs live
# through the engine (ForwardOnly delta streaming, no recorded trace), so
# the benchmark covers generation + dissemination at 100,000 nodes. The
# LongTrace variant doubles the round count to demonstrate that retained
# heap (live-MB) is independent of trace length; 10kStream is the same
# configuration at 10k, the linearity baseline.
bench100k:
	$(GO) test -run '^$$' -bench 'BenchmarkHiNet10kStream|BenchmarkHiNet100k' -benchmem -count 3 -timeout 2h .

# benchstat re-runs the 1k and 10k suites and diffs the numbers against the
# committed BENCH_*.json records via cmd/benchdiff: each record's "after"
# section is a ceiling, so a perf regression fails the target. Timing gets a
# 30% band (shared-machine noise; -count 3 keeps the best sample), the
# deterministic bytes/allocs get 5%. BENCH_PR6.json adds per-stage ceilings
# for the Timed variants, so a regression inside one engine stage fails even
# when the total hides it.
benchstat:
	$(GO) test -run '^$$' -bench 'BenchmarkHiNet1k|BenchmarkHiNet10k|BenchmarkHiNet100k' -benchmem -count 3 -timeout 2h . | tee bench.latest.out
	$(GO) run ./cmd/benchdiff -input bench.latest.out BENCH_PR2.json BENCH_PR4.json BENCH_PR5.json BENCH_PR6.json BENCH_PR7.json BENCH_PR9.json BENCH_PR10.json

# benchab runs the end-to-end benchmark (perfbench) on BASE and on this
# checkout, or on HEAD when given, in 10 alternating pairs per workload of
# BENCHMARK.json's run length, and writes BENCH_PR$(PR).json: medians,
# quartiles, wins, bounds, whether each metric is resolved, failed
# repetitions, host and steal (see cmd/benchab). CLAIM=workload:metric
# judges a speed claim by the 9-of-10-pairs and base-IQR rule; TRACE=N
# adds N traced pairs per workload for per-layer medians. BASE is exported
# with git archive under .bench_build/benchab/.
TRACE ?= 0
benchab:
	@if [ -z "$(BASE)" ] || [ -z "$(PR)" ]; then \
		echo "usage: make benchab BASE=<rev> PR=<n> [HEAD=<rev>] [WORKLOADS=a,b] [CLAIM=workload:metric] [TRACE=0]"; exit 2; fi
	$(GO) run ./cmd/benchab -base '$(BASE)' -head '$(HEAD)' -out BENCH_PR$(PR).json \
		-workloads '$(WORKLOADS)' -claim '$(CLAIM)' -trace $(TRACE)

# smoke runs every entry point end to end at its defaults: each hinetsim
# scenario, hinetbench's whole evaluation at one seed, and every program
# under examples/. Any non-zero exit fails it.
SMOKE_SCENARIOS = fig1 fig3 hinet onel mobility
smoke:
	@set -e; for s in $(SMOKE_SCENARIOS); do \
		echo "hinetsim -scenario $$s"; $(GO) run ./cmd/hinetsim -scenario $$s > /dev/null; \
	done
	@echo "hinetbench -all -seeds 1"; $(GO) run ./cmd/hinetbench -all -seeds 1 > /dev/null
	@set -e; for d in examples/*/; do \
		echo "$$d"; $(GO) run ./$$d > /dev/null; \
	done

# timing-smoke is CI's end-to-end determinism check for the self-profiling
# layer: the same 1k-node scenario serial and with -workers 4, both with
# normalized timing streams, must produce byte-identical JSONL (the in-repo
# unit version is TestTimingSerialParallelByteIdentical; this one goes
# through the hinetsim binary).
timing-smoke:
	$(GO) run ./cmd/hinetsim -scenario hinet -n 1000 -k 8 -seed 3 \
		-timing timing.serial.jsonl -timing-normalize > /dev/null
	$(GO) run ./cmd/hinetsim -scenario hinet -n 1000 -k 8 -seed 3 \
		-timing timing.par.jsonl -timing-normalize -workers 4 > /dev/null
	cmp timing.serial.jsonl timing.par.jsonl
	@echo "timing streams byte-identical (serial vs -workers 4)"
	@rm -f timing.serial.jsonl timing.par.jsonl

# health-smoke is CI's end-to-end check for the flight recorder: a run whose
# heads all crash at round 4 must stall, the stall SLO rule must fire, a
# postmortem bundle must land in the dump directory, and hinettrace
# postmortem must diagnose it back to the stall rule (the in-repo unit
# versions are TestStallProducesExactlyOneBundle and friends; this one goes
# through both binaries).
health-smoke:
	rm -rf health-smoke.dumps
	$(GO) run ./cmd/hinetsim -scenario hinet -n 64 -k 8 -theta 16 -seed 1 \
		-crash-heads 4 -stall-window 8 -health "stall>=8,pace" \
		-dump-dir health-smoke.dumps -record 64 > /dev/null
	ls health-smoke.dumps/hinet-r*-stall.dump
	$(GO) run ./cmd/hinettrace postmortem health-smoke.dumps/hinet-r*-stall.dump \
		| grep "first violated invariant: rule stall"
	@echo "stall anomaly dumped and diagnosed (hinetsim -> hinettrace postmortem)"
	@rm -rf health-smoke.dumps
