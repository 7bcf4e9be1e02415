# Convenience targets for the Millipede reproduction.

GO ?= go

.PHONY: all build test check bench ab bench-diff bench-diff-noskip trace-demo serve-demo cluster-demo

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-merge gate: static analysis plus the race detector over
# the concurrent packages (the figure harness fans runs out over a worker
# pool; sim, prefetch, corelet, mem, memctrl, and stack carry the
# determinism-critical hot paths; the serving layer — jobs, rescache, server,
# router, sla — is concurrent by construction; datagen and workloads carry
# the streaming dataset contract). The determinism gate against the BENCH
# baseline is bench-diff plus bench-diff-noskip (below). The run includes the
# standing gates:
#   TestMultiChannelGoldenEquivalence — 2- and 4-channel runs reduce to the
#     single-channel output, and their Time/Cycles match a pinned hash;
#   TestCycleLoopAllocFree — the steady-state cycle loop must make zero heap
#     allocations on every architecture, behind every stack backend and in
#     the barrier ablation's count variants;
#   TestStreamingEquivalentToOneShot — any chunking of a dataset Source is
#     byte-identical to a one-shot materialization;
#   TestStreamingConstantMemory — folding an 800x dataset through bounded
#     buffers must not grow the heap (streamed inputs are O(chunk), never
#     O(records));
#   TestRunResultsPinned — every architecture's full result (timing, energy,
#     memory and stack counters, metrics, reduced output) matches a pinned
#     hash;
#   TestExperimentRendersPinned — every registered experiment but the
#     wall-clock sla study renders and encodes to a pinned hash at
#     GOMAXPROCS 1 and 4;
#   TestRunNodePinned — the measured multi-processor node's makespan,
#     per-processor times, energy, instructions and reduced output match a
#     pinned hash;
#   TestBarrierAblationSharesCountReference — the barrier ablation's barrier
#     programs verify against count's golden reference (one memo entry).
# It also runs two native fuzz smokes: 20 s of FuzzAdvanceMatchesLockstep
# (the corelet run-ahead sweep against the lockstep sweep on generated and
# BMLA kernels) and 10 s of FuzzCanonicalID (millid's job decoder: no panic,
# a memoized body gets the id a fresh canonicalization gives, and the
# canonical request re-canonicalizes to its own id). A failing input lands
# in the package's testdata/fuzz and becomes part of the plain test run once
# committed. Last, it vets and tests the bench/ module (millibench), which
# imports the processor models and the harness and so breaks when their API
# does.
#
# The harness race suite runs ~10 minutes of simulation wall time on its
# own (the alloc-free and bit-identity gates each replay full benchmark
# sweeps), which sits right at go test's default 10-minute kill timer —
# give it explicit headroom so a loaded machine doesn't flake the gate.
check:
	$(GO) vet ./...
	$(GO) test -race -timeout 30m ./internal/harness ./internal/sim ./internal/prefetch \
		./internal/corelet ./internal/mem ./internal/memctrl ./internal/stack \
		./internal/datagen ./internal/workloads \
		./internal/jobs ./internal/rescache ./internal/server ./internal/router ./internal/sla
	$(GO) test -run '^$$' -fuzz FuzzAdvanceMatchesLockstep -fuzztime 20s ./internal/corelet
	$(GO) test -run '^$$' -fuzz FuzzCanonicalID -fuzztime 10s ./internal/server
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem

# ab is the same-host A/B a speed claim rests on: PAIRS alternating pairs of
# millibench runs of WORKLOAD (seeds SEED, SEED+1, ...), one side built from
# revision BASE, the other from this checkout. It prints each pair's raw pass
# median, normalized pass_s and sim_digest equality, then millibench
# -compare and both sides' medians, quartiles and wins (scripts/ab.sh).
BASE ?= HEAD
WORKLOAD ?= mimd
PAIRS ?= 10
SEED ?= 1
ab:
	bash scripts/ab.sh $(BASE) $(WORKLOAD) $(PAIRS) $(SEED)

# bench-diff is the determinism gate: re-run the 48 arch x bench entries
# and fail unless every records/sim_cycles/sim_picos/insts field is
# bit-identical to the committed baseline. A timing-neutral change must pass
# this unchanged; a change that alters timing on purpose writes a new
# baseline with `milliexp -benchjson` (see EXPERIMENTS.md, "Determinism
# gate").
BENCH_BASE ?= BENCH_4.json
bench-diff:
	$(GO) run ./cmd/milliexp -benchdiff $(BENCH_BASE)

# bench-diff-noskip replays every clock edge (quiescence time skipping off)
# and diffs against the same baseline: the fast-forward path must be
# bit-identical to the edge-by-edge engine, or a skip window elided an edge
# that could have done work. milliexp's -skip=off exists only for this gate:
# the models decide where skipping runs, and millid has no skip flag.
bench-diff-noskip:
	$(GO) run ./cmd/milliexp -benchdiff $(BENCH_BASE) -skip=off

# serve-demo smoke-tests the millid simulation service end to end over real
# HTTP: start the daemon, list the registry, run a count-kernel job twice
# (the repeat must be a cache hit with no second simulation), and drain it
# with SIGTERM. CI runs this alongside bench-diff.
serve-demo:
	bash scripts/serve_demo.sh

# cluster-demo smoke-tests the cluster topology: a shared result store, two
# worker nodes mounting it, and the consistent-hash router in front. It
# verifies the cluster-wide caching guarantee (an identical request POSTed
# to both workers simulates exactly once — the second node hits the store
# tier), that the router answers a repeated POST and result GET of the
# finished job itself (the same bytes, router.cache_hits >= 2, no worker's
# server.cache_hits moving), and runs a short milliload SLA report through
# the router.
cluster-demo:
	bash scripts/cluster_demo.sh

# trace-demo writes a Chrome trace-event capture of a bandwidth-contested
# count run; open trace.json in ui.perfetto.dev or chrome://tracing.
trace-demo:
	$(GO) run ./cmd/millisim -arch millipede -bench count -records 2048 -trace-out trace.json
