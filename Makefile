# Stellaris-Go build/test entry points. CI (.github/workflows/ci.yml)
# runs exactly these targets so local dev and the gate are identical.

GO ?= go
COVERPROFILE ?= coverage.out
FUZZTIME ?= 5s

.PHONY: build test race stable cover fmt vet cross nofma lint leaktest live-smoke loc benchmark benchmark-ab fuzz-short ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the fast test set; the chaos/CNN long runners
# are gated behind testing.Short(). internal/core runs at two widths:
# its replica pool is GOMAXPROCS wide, so -cpu 1 is the one-replica
# schedule and -cpu 4 the overlapping one.
race:
	$(GO) test -race -short $$($(GO) list ./... | grep -v '/internal/core$$')
	$(GO) test -race -short -cpu 1,4 ./internal/core

# Stability pass: the short suite STABLE_COUNT times over (about 12 s of
# test time per pass, five minutes at the default on two cores), so a
# test that fails one run in twenty is found by a machine instead of by
# whichever PR happens to trip over it.
STABLE_COUNT ?= 20
stable:
	$(GO) test -count=$(STABLE_COUNT) -short ./...

cover:
	$(GO) test -coverprofile=$(COVERPROFILE) -covermode=atomic ./...
	$(GO) tool cover -func=$(COVERPROFILE) | tail -1

# Fails (non-zero exit + file list) if any file needs gofmt.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Project-specific invariant analyzer (stdlib-only, see DESIGN.md
# "Invariants"): wall-clock reads in DES packages, mixed atomic/plain
# field access, blocking under a mutex (in the critical section or down
# a call chain), lock-order deadlock cycles, leaked goroutines, global
# math/rand, silently dropped cache errors, exported names that only
# tests or benchmark/ reach, and stale //lint:allow directives. Exits
# non-zero on any finding; the -budget flag fails the run if module
# analysis outgrows its CI time box.
lint:
	$(GO) run ./cmd/stellaris-lint -budget 120s ./...

# The race-enabled pass WITHOUT -short over the cache tier, the live
# trainer and obs HTTP. It is the one pass that runs every TestChaos*
# drill (all of them live in internal/cache and internal/live: fault
# proxy at aggressive rates, the learner-panic + server-bounce drill of
# DESIGN.md "Crash recovery", and the cluster
# drills of §11 — shard-kill failover, asymmetric partition fenced by
# term), and these suites are
# wired with leaktest.Check, so every Close/Stop path is exercised and
# any goroutine outliving its test fails the build — the dynamic
# complement of the static goroleak check above. The fast
# recovery/resume tests run in `make race` already.
leaktest:
	$(GO) test -race -count=1 ./internal/leaktest ./internal/cache ./internal/live ./internal/obs

# End to end through the built examples/live_cluster, whose flags bind
# live.Options: a single-server run; a 3-shard cluster with followers;
# and a shard-kill failover, whose printed "resilience:" retries,
# reconnects and timeouts
# must equal cache_client_events_total in its metrics.prom (an absent
# series counts as 0). Any non-zero exit fails the target.
LIVE_SMOKE_DIR ?= .live_smoke
live-smoke:
	rm -rf $(LIVE_SMOKE_DIR) && mkdir -p $(LIVE_SMOKE_DIR)
	$(GO) build -o $(LIVE_SMOKE_DIR)/live_cluster ./examples/live_cluster
	$(LIVE_SMOKE_DIR)/live_cluster -updates 8
	$(LIVE_SMOKE_DIR)/live_cluster -shards 3 -shard-followers -updates 4
	$(LIVE_SMOKE_DIR)/live_cluster -shards 3 -shard-followers -updates 64 -kill-shard-after 20ms \
		-obs-dir $(LIVE_SMOKE_DIR)/obs > $(LIVE_SMOKE_DIR)/failover.txt || { cat $(LIVE_SMOKE_DIR)/failover.txt; exit 1; }
	@cat $(LIVE_SMOKE_DIR)/failover.txt
	@set -e; line=$$(grep '^resilience:' $(LIVE_SMOKE_DIR)/failover.txt); \
	for pair in retry:retries reconnect:reconnects timeout:timeouts; do \
		event=$${pair%%:*}; word=$${pair#*:}; \
		printed=$$(echo "$$line" | grep -oE "[0-9]+ $$word" | cut -d' ' -f1); \
		prom=$$(awk -v s="cache_client_events_total{event=\"$$event\"}" '$$1 == s {n += $$2} END {print n + 0}' $(LIVE_SMOKE_DIR)/obs/metrics.prom); \
		echo "live-smoke: $$word printed $$printed, metrics.prom $$prom"; \
		test "$$printed" = "$$prom" || { echo "live-smoke: the resilience line disagrees with metrics.prom"; exit 1; }; \
	done

# Short live fuzz of the cache wire codec and framing, of the checkpoint
# decoder, and of the tensor kernels against their references (the
# scalar loops, math.Tanh), Scale, the Adam step and ReLU's mask among
# them. The
# checked-in corpora under internal/cache/testdata/fuzz,
# internal/ckpt/testdata/fuzz and
# internal/tensor/testdata/fuzz replay on every plain `go test`; this
# target additionally explores new inputs for FUZZTIME per fuzz target
# (go's -fuzz accepts one target at a time).
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime $(FUZZTIME) ./internal/cache
	$(GO) test -run '^$$' -fuzz '^FuzzBinCodecRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/cache
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime $(FUZZTIME) ./internal/ckpt
	$(GO) test -run '^$$' -fuzz '^FuzzKernels$$' -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzTanh$$' -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzScale$$' -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzAdamStep$$' -fuzztime $(FUZZTIME) ./internal/tensor
	$(GO) test -run '^$$' -fuzz '^FuzzReLUMask$$' -fuzztime $(FUZZTIME) ./internal/tensor

# The !amd64 twin of internal/tensor's assembly kernels, and everything
# above it (internal/optim's Adam step among them), built for a port
# that has none. Compiles from the local GOROOT: no network, no emulator. Then
# every format read through internal/wire (payload, batch blob, record,
# checkpoint, lineage meta) on a 32-bit int — run, natively,
# as 386 binaries on an amd64 Linux host: crafted counts and lengths
# must not wrap, and the one-copy slab path runs there too — and the
# tensor kernels' Go path and kernel_noasm.go, held to the scalar loops
# off amd64 (the tests' /avx512 and /avx2 legs skip there); then the
# cache vetted for a big-endian port (s390x), where the per-element
# slab loop is the only path and must build.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor ./internal/optim
	GOARCH=386 $(GO) test -short ./internal/cache ./internal/ckpt ./internal/wire ./internal/obs/lineage ./internal/tensor
	GOARCH=s390x $(GO) vet ./internal/cache ./internal/wire

# The second amd64 host class (DESIGN.md §8): with GODEBUG=cpu.fma=off
# math.Exp takes its non-FMA arm, as it does on a CPU without FMA, so
# math.Tanh returns other bits for about one input in 280. The tanh
# kernel must notice at init and stand down (internal/tensor asserts
# that it has), and everything that pins outputs by tolerance or by
# self-consistency must still pass on such a host. The first line logs
# which kernel levels (AVX-512, AVX2, the tanh kernels) this host runs
# as detected, so that a runner's log says which legs of the kernel
# tests ran; it fails where the CPU lists avx512f but the 512-bit
# kernels are off.
nofma:
	$(GO) test -count=1 -v -run '^TestAVX512KernelsInUseWhereTheCPUHasThem$$' ./internal/tensor
	GODEBUG=cpu.fma=off $(GO) test -short ./internal/tensor ./internal/nn ./internal/algo ./internal/optim ./internal/core

# Line counts as ROADMAP.md and CHANGES.md report them: the tracked
# files (git ls-files) outside _test.go files, testdata/ directories and
# benchmark/, Go and assembly apart, then the non-test Go lines of each
# internal/* directory (its subdirectories counted apart). `make loc` on
# two commits gives a change's net non-test LOC.
LOC_LIST = git ls-files -- '*$(1)' ':!:*_test.go' ':!:**/testdata/**' ':!:benchmark/**'
LOC_FILES = $(call LOC_LIST,$(1)) | xargs cat | wc -l
loc:
	@echo "non-test Go lines: $$($(call LOC_FILES,.go))"
	@echo "assembly lines:    $$($(call LOC_FILES,.s))"
	@$(call LOC_LIST,.go) | grep '^internal/' | xargs wc -l | \
		awk '$$2 != "total" { sub("/[^/]+$$", "", $$2); n[$$2] += $$1 } END { for (d in n) printf "  %-28s %6d\n", d, n[d] }' | sort

# The repo's benchmark (benchmark/README.md, BENCHMARK.json): every
# workload, or WORKLOAD=<name>, at SEED.
WORKLOAD ?= all
SEED ?= 1
benchmark:
	bash benchmark/run.sh --workload $(WORKLOAD) --seed $(SEED)

# Same-machine A/B of the working tree (head) against BASE, the form a
# claimed gain is measured in: BASE is checked out into a local clone
# (not a git worktree: sandboxes refuse `git worktree add`), both
# benchmarks are built, and every workload (or WORKLOAD=<name>) is run
# PAIRS times on each side, one run of AB_SECONDS after another,
# alternating which side goes first; pair i runs both sides at seed
# SEED+i-1. The runs are gathered into $(AB_DIR)/base/result.json and
# $(AB_DIR)/head/result.json (needs jq; each is stamped with the commit
# its side was built from), the per-pair updates_per_s, cycles_per_s,
# wall_s and alloc_mb are listed (a workload without cycles leaves that
# column empty), each pair of a workload with an output hash
# (lockstep_fat, des_sweep) says whether base and head agree, ending
# with "output hashes equal in N/N pairs" (informational: a same-bits
# change reads N/N), and `benchmark compare` has the last word and sets
# the exit status.
PAIRS ?= 10
AB_SECONDS ?= 20
AB_DIR ?= .bench_ab
AB_MERGE = reduce .[] as $$f (null; if . == null then $$f else reduce ($$f.workloads | to_entries[]) as $$w (.; \
	if .workloads[$$w.key] then .workloads[$$w.key].runs += $$w.value.runs else .workloads[$$w.key] = $$w.value end) end)
AB_PAIRS = map(.workloads) as [$$a, $$b] | $$a | keys_unsorted[] | . as $$w | range($$a[$$w].runs | length) | . as $$i \
	| [$$w, $$a[$$w].runs[$$i].seed, ($$a, $$b | .[$$w].runs[$$i].metrics | .updates_per_s, .cycles_per_s, .wall_s, .alloc_mb)] | @tsv
AB_HASHES = map(.workloads) as [$$a, $$b] | [$$a | keys_unsorted[] as $$w | range($$a[$$w].runs | length) as $$i \
	| $$a[$$w].runs[$$i] | select(.hash) | {w: $$w, seed, base: .hash, head: ($$b[$$w].runs[$$i].hash // "none")}] \
	| (.[] | "\(.w)\tseed \(.seed)\tbase \(.base[:12])\thead \(.head[:12])\t\(if .base == .head then "equal" else "DIFFERENT" end)"), \
	if length > 0 then "output hashes equal in \(map(select(.base == .head)) | length)/\(length) pairs" else empty end
benchmark-ab:
	@test -n "$(BASE)" || { echo "usage: make benchmark-ab BASE=<ref> [WORKLOAD=name] [SEED=1] [PAIRS=10] [AB_SECONDS=20]"; exit 2; }
	rm -rf $(AB_DIR) && mkdir -p $(AB_DIR)/bin
	git clone --quiet --local --no-checkout . $(AB_DIR)/worktree
	git -C $(AB_DIR)/worktree checkout --quiet --detach $$(git rev-parse "$(BASE)^{commit}")
	cd $(AB_DIR)/worktree && $(GO) build -o ../bin/base ./benchmark
	$(GO) build -o $(AB_DIR)/bin/head ./benchmark
	rm -rf $(AB_DIR)/worktree
	@set -e; workloads="$(WORKLOAD)"; \
	if [ "$$workloads" = all ]; then workloads="$$(jq -r '.workloads[].name' BENCHMARK.json)"; fi; \
	for w in $$workloads; do for i in $$(seq 1 $(PAIRS)); do \
		order="base head"; if [ $$((i % 2)) = 0 ]; then order="head base"; fi; \
		for side in $$order; do \
			echo "== $$w pair $$i/$(PAIRS): $$side"; \
			out=$(AB_DIR)/$$side/runs/$$w-$$i; mkdir -p $$out; \
			$(AB_DIR)/bin/$$side --workload $$w --seed $$(($(SEED) + i - 1)) --seconds $(AB_SECONDS) --out $$out > $$out/stdout.txt \
				|| { cat $$out/stdout.txt; exit 1; }; \
			grep -E 'output hash|^    (updates_per_s|cycles_per_s|wall_s|alloc_mb) ' $$out/stdout.txt; \
		done; \
	done; done; \
	base=$$(git rev-parse "$(BASE)^{commit}"); head=$$(git rev-parse HEAD)$$(git diff --quiet HEAD || echo +uncommitted); \
	for side in base head; do \
		commit=$$base; if [ $$side = head ]; then commit=$$head; fi; \
		jq -s --arg commit "$$commit" '$(AB_MERGE) | .provenance.commit = $$commit' \
			$$(ls -v $(AB_DIR)/$$side/runs/*/result.json) > $(AB_DIR)/$$side/result.json; \
	done
	@printf 'workload\tseed\tbase updates_per_s\tbase cycles_per_s\tbase wall_s\tbase alloc_mb\thead updates_per_s\thead cycles_per_s\thead wall_s\thead alloc_mb\n'
	@jq -rs '$(AB_PAIRS)' $(AB_DIR)/base/result.json $(AB_DIR)/head/result.json
	@jq -rs '$(AB_HASHES)' $(AB_DIR)/base/result.json $(AB_DIR)/head/result.json
	$(AB_DIR)/bin/head compare $(AB_DIR)/base/result.json $(AB_DIR)/head/result.json

ci: build fmt vet cross nofma lint race leaktest live-smoke cover stable
