GO ?= go

# Benchmark-regression gate settings. BENCH_TIME=100x amortizes warmup
# (first-round arena growth would otherwise dominate allocs/op and
# ns/op) while keeping the full gate run under a minute. BENCH_TOLERANCE
# is deliberately looser than benchjson's 1.3 default: the gate compares
# a committed baseline against runs on shared CI runners, so it is tuned
# to catch real regressions (2x+) without flaking on scheduler noise.
# allocs/op is noise-free at 100 iterations, so the same tolerance is an
# effectively exact gate there — including 0 allocs/op staying 0.
BENCH_TOLERANCE ?= 1.6
BENCH_TIME ?= 100x
FUZZ_TIME ?= 30s

# Committed coverage minima, one pkg:min entry per gated package: the
# replication/failover-critical packages plus the wire protocol, the
# telemetry, the serving layer, the snapshot codec, the partition
# extraction with its ownership index, the locality partitioner, the
# graph and its loader, and the SCC condensation (cover-gate). The slack absorbs
# small refactors, while a real test deletion trips the gate. Gating
# another package is one more entry here.
COVER_GATE ?= \
	internal/shard:92.0 \
	internal/shard/chaos:85.0 \
	internal/dsr:93.0 \
	internal/wire:85.0 \
	internal/obs:85.0 \
	internal/obs/fleet:85.0 \
	internal/serve:85.0 \
	internal/snapshot:92.0 \
	internal/partition:92.0 \
	internal/partition/locality:97.0 \
	internal/graph:85.0 \
	internal/scc:94.0

.PHONY: build test test-e2e vet fmt fmt-check lint bench bench-smoke bench-json bench-baseline bench-gate bench-harness-test ab cover-gate fuzz-smoke doc-check size vulncheck

build:
	$(GO) build ./...

# -timeout 5m (here and in test-e2e): the slowest package takes well
# under a minute, so a hang fails in minutes with a goroutine dump
# instead of at go test's 10-minute default.
test:
	$(GO) test -race -timeout 5m ./...

# Localhost shard e2e under the race detector: boots real TCP shard
# servers (in-process and as the actual dsr-shard/dsr-query binaries,
# including R>1 replica fleets with mid-stream kills) and the chaos
# suites (seeded fault injection, frame-cutting proxies), all checked
# differentially against the oracle.
test-e2e:
	$(GO) test -race -timeout 5m -count=1 -run 'TCP|Distributed|Chaos|Replicated|Proxy' ./...

# Coverage gate: `go test -cover` on the packages COVER_GATE lists,
# each compared against its committed minimum. A failing test, a
# coverage drop past the minimum, or a listed package that reports no
# coverage line fails the target; raise the minima when coverage rises
# for keeps.
cover-gate:
	@out="$$($(GO) test -count=1 -cover $(foreach e,$(COVER_GATE),./$(firstword $(subst :, ,$(e)))))"; \
	status=$$?; echo "$$out"; \
	echo "$$out" | awk -v gate="$(COVER_GATE)" ' \
		BEGIN { want = split(gate, entries, " "); for (i = 1; i <= want; i++) { split(entries[i], e, ":"); min["dsr/" e[1]] = e[2] } } \
		$$1 == "FAIL" { fail = 1 } \
		/coverage:/ && ($$2 in min) { \
			pct = ""; for (i = 1; i <= NF; i++) if ($$i ~ /%$$/) { pct = $$i; gsub("%", "", pct) } \
			seen++; \
			if (pct + 0 < min[$$2] + 0) { printf "cover-gate: %s %.1f%% < %.1f%% minimum\n", $$2, pct, min[$$2]; fail = 1 } \
			else printf "cover-gate: %s %.1f%% (minimum %.1f%%)\n", $$2, pct, min[$$2] \
		} \
		END { if (seen != want) { printf "cover-gate: expected %d coverage lines, saw %d\n", want, seen; fail = 1 }; exit fail }' \
	&& [ $$status -eq 0 ]

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# Fails (with the offending files listed) if anything is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

lint: vet fmt-check

bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# One iteration per benchmark: cheap CI smoke that the harness still runs.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Same cheap single-iteration run, converted to per-commit JSON perf
# records (tools/benchjson does the parse): BENCH_query.json captures
# the query paths (BenchmarkQuery, BenchmarkQueryBatch, and the TCP
# variants), BENCH_build.json everything else. Separate steps, not a
# pipe: a pipe would return benchjson's exit status and mask benchmark
# failures.
bench-json:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' ./... > bench.out
	$(GO) run ./tools/benchjson -not '^Benchmark((TCP)?Query|NaiveReach)' < bench.out > BENCH_build.json
	$(GO) run ./tools/benchjson -only '^Benchmark((TCP)?Query|NaiveReach)' < bench.out > BENCH_query.json
	@rm -f bench.out
	@echo "wrote BENCH_build.json and BENCH_query.json"

# Re-record the committed benchmark baseline that bench-gate compares
# against. Run this (and commit BENCH_baseline/) when a perf change is
# intentional; the gate's output names this target on failure. -p 1
# (here and in bench-gate) runs one package's benchmarks at a time:
# side by side they time each other's scheduling, which at 100
# iterations of a microsecond-scale benchmark is most of the reading.
bench-baseline:
	$(GO) test -p 1 -bench=. -benchmem -benchtime=$(BENCH_TIME) -run='^$$' ./... > bench-baseline.out
	@mkdir -p BENCH_baseline
	$(GO) run ./tools/benchjson -not '^Benchmark((TCP)?Query|NaiveReach)' < bench-baseline.out > BENCH_baseline/BENCH_build.json
	$(GO) run ./tools/benchjson -only '^Benchmark((TCP)?Query|NaiveReach)' < bench-baseline.out > BENCH_baseline/BENCH_query.json
	@rm -f bench-baseline.out
	@echo "wrote BENCH_baseline/BENCH_build.json and BENCH_baseline/BENCH_query.json"

# CI benchmark-regression gate: run the suite fresh (same benchtime as
# the baseline) and fail if ns/op or allocs/op regressed past
# BENCH_TOLERANCE on any benchmark in the committed baseline. Names are
# matched with the -N core-count suffix stripped, so the baseline
# machine and the CI runner need not have the same core count — but
# ns/op is still absolute time, so record the baseline on hardware in
# the same class as the gate runner (CI's own bench-smoke artifacts are
# a good source) or widen BENCH_TOLERANCE; allocs/op is exact on any
# machine and is where the gate has teeth regardless. Both suites are
# compared even if the first regresses, so one run reports everything.
bench-gate:
	$(GO) test -p 1 -bench=. -benchmem -benchtime=$(BENCH_TIME) -run='^$$' ./... > bench-gate.out
	$(GO) run ./tools/benchjson -not '^Benchmark((TCP)?Query|NaiveReach)' < bench-gate.out > bench-gate-build.json
	$(GO) run ./tools/benchjson -only '^Benchmark((TCP)?Query|NaiveReach)' < bench-gate.out > bench-gate-query.json
	@fail=0; \
	$(GO) run ./tools/benchjson -compare BENCH_baseline/BENCH_build.json bench-gate-build.json -tolerance $(BENCH_TOLERANCE) || fail=1; \
	$(GO) run ./tools/benchjson -compare BENCH_baseline/BENCH_query.json bench-gate-query.json -tolerance $(BENCH_TOLERANCE) || fail=1; \
	rm -f bench-gate.out bench-gate-build.json bench-gate-query.json; \
	exit $$fail

# The benchmark harness (bench/, the program BENCHMARK.json names) is a
# module of its own, so root `go test ./...` never compiles it. Its
# tests build it against this checkout's internal/... packages and
# include the harness's -smoke run against real shard/serve processes.
bench-harness-test:
	cd bench && $(GO) test ./...

# Paired end-to-end evidence for a change: the benchmark BENCHMARK.json
# names, on PARENT and on the working tree, PAIRS pairs per workload
# (which side runs first drawn per pair and workload from -seed, runs a
# second apart, one fresh seed per pair), each
# side built and run by its own bench/run.sh. Prints per (workload,
# metric) both medians and quartiles, the pairs won, and a verdict
# under the metric's bound — `worse` past the bound first, and where the
# parent's own spread is wider than the bound `better` only when every
# change run beats every parent run, `unresolved` otherwise (tools/ab
# has the rules). The parent is
# exported under .bench_build/ab/, and nothing is written outside
# .bench_build/. A full run is 4 workloads x 2 sides x PAIRS x ~65 s.
# With BENCH=<regexp> the pairs run PKG's Go benchmarks of that name
# instead — each side's test binary built once, BENCH_TIME iterations a
# row — through the same table on ns/op; a microbenchmark has no bound,
# so its rows are reported and never fail the target.
PARENT ?= HEAD
PAIRS ?= 10
SECONDS ?= 15
WORKLOADS ?=
BENCH ?=
PKG ?= ./internal/dsr

ab:
	$(GO) run ./tools/ab -parent $(PARENT) -workloads "$(WORKLOADS)" -pairs $(PAIRS) -seconds $(SECONDS) \
		-bench '$(BENCH)' -pkg $(PKG) -benchtime $(BENCH_TIME)

# Run every fuzz target for FUZZ_TIME each — the wire-protocol decoders
# and the snapshot header decoder against hostile input, the whole
# snapshot decoder on inputs whose checksum is re-stamped (so mutations
# reach the section validators) through shard.FromSnapshot and a
# re-encode, the shard's per-task walk
# against its first-boundary reference (a scalar BFS that stops at the
# first component holding an entry, or an exit, on an entry→exit path)
# on graphs, partitionings and task batches decoded from the fuzz
# bytes, the rank index behind
# Subgraph.Local against a binary search on ownership sets and probes
# decoded the same way, the edge-list loader's allocation-free line
# reader against the general trim/split/ParseUint rule, the
# single-partition extraction (ExtractOne: CSR, entries, exits, cross
# edges) against the k-way reference on multigraphs and labellings
# decoded the same way, with the exits a decode derives from the cross
# edges in any order, the coordinator's boundary finish — the
# bidirectional walk and the 2-hop label lookups both — against a
# per-query BFS on boundary graphs and rounds decoded the same way, the
# coordinator's bucketed boundary stitch against the
# binary-search stitch it replaced on fleets of up to four summaries
# decoded the same way, and the locality partitioner against its
# full-scan reference on small multigraphs and options decoded the same
# way — growing the corpus instead of only replaying
# committed seeds. Minimizing an interesting input is capped at 2 s:
# go's default (60 s) lets the workers spend a whole FUZZ_TIME
# shrinking one input and run a few dozen execs.
# Any crasher go finds is written to testdata/fuzz and fails the run.
fuzz-smoke:
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzDecodeTasks$$' -fuzztime=$(FUZZ_TIME) -fuzzminimizetime=2s
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzDecodeResults$$' -fuzztime=$(FUZZ_TIME) -fuzzminimizetime=2s
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzDecodeHello$$' -fuzztime=$(FUZZ_TIME) -fuzzminimizetime=2s
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzReadFrame$$' -fuzztime=$(FUZZ_TIME) -fuzzminimizetime=2s
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzDecodeSummary$$' -fuzztime=$(FUZZ_TIME) -fuzzminimizetime=2s
	$(GO) test ./internal/snapshot -run='^$$' -fuzz='^FuzzDecodeSnapshotHeader$$' -fuzztime=$(FUZZ_TIME) -fuzzminimizetime=2s
	$(GO) test ./internal/snapshot -run='^$$' -fuzz='^FuzzDecodeSnapshot$$' -fuzztime=$(FUZZ_TIME) -fuzzminimizetime=2s
	$(GO) test ./internal/shard -run='^$$' -fuzz='^FuzzShardRun$$' -fuzztime=$(FUZZ_TIME) -fuzzminimizetime=2s
	$(GO) test ./internal/partition -run='^$$' -fuzz='^FuzzSubgraphLocal$$' -fuzztime=$(FUZZ_TIME) -fuzzminimizetime=2s
	$(GO) test ./internal/partition -run='^$$' -fuzz='^FuzzExtractOne$$' -fuzztime=$(FUZZ_TIME) -fuzzminimizetime=2s
	$(GO) test ./internal/graph -run='^$$' -fuzz='^FuzzLoadEdgeList$$' -fuzztime=$(FUZZ_TIME) -fuzzminimizetime=2s
	$(GO) test ./internal/dsr -run='^$$' -fuzz='^FuzzBoundaryFinish$$' -fuzztime=$(FUZZ_TIME) -fuzzminimizetime=2s
	$(GO) test ./internal/dsr -run='^$$' -fuzz='^FuzzStitchBoundary$$' -fuzztime=$(FUZZ_TIME) -fuzzminimizetime=2s
	$(GO) test ./internal/partition/locality -run='^$$' -fuzz='^FuzzPartitionMatchesReference$$' -fuzztime=$(FUZZ_TIME) -fuzzminimizetime=2s

# Godoc hygiene gate: every package must carry a package comment, the
# packages tools/doccheck lists as strict (internal/serve) must
# document every exported symbol, every internal/, cmd/ or tools/
# path README.md, PAPER.md and docs/*.md name must exist, and every
# flag a docs/OPERATIONS.md flag-table row names must be defined.
doc-check:
	$(GO) run ./tools/doccheck

# The numbers a simplicity change quotes, as one command: non-test Go
# lines under internal/ cmd/ tools/ (the nested bench/ module is not
# counted) in total and per package, each beside its code lines — not
# blank, not a // comment; the figure targets are set on — and per
# package the exported top-level symbols: funcs, methods on exported
# receivers, types, single-line vars and consts. Informational: CI
# prints it, nothing gates on it.
SIZE_CODE = grep -vcE '^[[:space:]]*(//.*)?$$'

size:
	@files="$$(find internal cmd tools -name '*.go' ! -name '*_test.go')"; \
	echo "non-test lines (internal/ cmd/ tools/): $$(cat $$files | wc -l), code lines: $$(cat $$files | $(SIZE_CODE))"
	@echo "per package: lines, code lines, exported symbols"
	@for d in $$(find internal cmd tools -name '*.go' ! -name '*_test.go' -exec dirname {} + | sort -u); do \
		files="$$(ls $$d/*.go | grep -v _test.go)"; \
		printf '  %-28s %6s %6s %4s\n' $$d $$(cat $$files | wc -l) $$(cat $$files | $(SIZE_CODE)) \
			$$(cat $$files | grep -cE '^(func (\([a-z]+ \*?[A-Z][^)]*\) )?[A-Z]|type [A-Z]|(var|const) [A-Z])'); \
	done

# Scan dependencies and stdlib usage against the Go vulnerability
# database (network access required; CI installs the tool pinned).
vulncheck:
	govulncheck ./...
