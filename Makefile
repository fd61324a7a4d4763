GO ?= go

# Output file and optional text baseline for bench-json (see cmd/benchjson).
BENCH_OUT ?= BENCH_2.json
BENCH_BASELINE ?=

.PHONY: all build vet vet-shadow test race race-server dxbench-test serve-smoke store-smoke cluster-smoke membership-smoke bench-smoke bench-json bench-incr bench-columnar bench-columnar-smoke bench-enum bench-enum-smoke bench-store bench-store-smoke bench-cluster bench-cluster-smoke ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Variable-shadowing analysis. The shadow analyzer ships separately from the
# toolchain; when the binary is absent we skip rather than fetch it (CI runs
# offline). Install with:
#   go install golang.org/x/tools/go/analysis/passes/shadow/cmd/shadow@latest
vet-shadow:
	@if command -v shadow >/dev/null 2>&1; then \
		$(GO) vet -vettool=$$(command -v shadow) ./...; \
	else \
		echo "vet-shadow: shadow analyzer not installed, skipping"; \
	fi

test:
	$(GO) test ./...

# The parallel evaluation paths (certain.ForEachRep, cwa.Enumerate,
# cwa.Incomparable) are exercised under the race detector; the
# worker-invariance crosscheck tests double as race workloads.
race:
	$(GO) test -race ./...

# Focused race pass over the server stack: the admission gate, the LRU
# caches, the registry's single-flight memos, and the metrics scrape-during-
# enumeration workload.
race-server:
	$(GO) test -race -count=1 ./internal/server/... ./internal/status/... ./internal/metrics/...

# dxbench is a separate module (dxbench/go.mod), so `go test ./...` at the
# root skips it, yet its oracle and counter-repeat tests exercise
# internal/certain and the server. Run its vet and race-enabled tests here.
# Not yet in ci: TestQueryMissCountersRepeat still requires rep_visited > 0
# on query-miss, a counter its pure UCQs no longer move (see ROADMAP.md).
dxbench-test:
	cd dxbench && GOWORK=off $(GO) vet . && GOWORK=off $(GO) test -race -count=1 .

# Start dxserver on a loopback port, fire a scripted request burst through
# the Go client (register, chase, core, certain twice to hit the result
# cache, enum, metrics, health), verify every response, and exit.
serve-smoke:
	$(GO) run ./cmd/dxserver -smoke

# One iteration of every benchmark: catches bit-rot in the bench targets
# without waiting for statistically meaningful timings.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Full benchmark run converted to JSON (the perf trajectory: BENCH_<pr>.json
# is committed per perf PR). Set BENCH_BASELINE to a saved `go test -bench`
# text output to embed before/after numbers and speedup ratios.
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem ./... \
		| $(GO) run ./cmd/benchjson $(if $(BENCH_BASELINE),-before $(BENCH_BASELINE)) \
		> $(BENCH_OUT)

# Incremental-maintenance benchmarks: the engine's delta chase
# (single-tuple inserts, delete/re-insert round-trips) against a full
# re-chase of the grown source, on the quickstart (Example 2.1) and genwl
# (existential-chain) workloads. Committed as BENCH_5.json; compare the
# delta and full rows per workload for the speedup.
BENCH_INCR_OUT ?= BENCH_5.json
bench-incr:
	$(GO) test -run '^$$' -bench 'BenchmarkMutation' -benchmem ./internal/incr/ \
		| $(GO) run ./cmd/benchjson > $(BENCH_INCR_OUT)

# Columnar-instance benchmark gate: the hot paths the columnar refactor
# targets (AlphaChase, CWASolution, the Enumerate benches, incr inserts),
# diffed against the committed pre-columnar baseline (bench/pr6_baseline.txt,
# the map-of-relations storage before PR 6). Committed as BENCH_6.json.
BENCH_COLUMNAR_OUT ?= BENCH_6.json
BENCH_COLUMNAR_BASELINE ?= bench/pr6_baseline.txt
BENCH_COLUMNAR_PAT := BenchmarkAlphaChase|BenchmarkCWASolution|BenchmarkEnumerate_Workers|BenchmarkExample53_Enumeration
bench-columnar:
	{ $(GO) test -run '^$$' -bench '$(BENCH_COLUMNAR_PAT)' -benchmem . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkMutationInsert' -benchmem ./internal/incr/ ; } \
		| $(GO) run ./cmd/benchjson -before $(BENCH_COLUMNAR_BASELINE) \
		> $(BENCH_COLUMNAR_OUT)

# One-iteration pass over the same benches: ci proves the gate itself still
# runs (bench code and baseline parse) without paying for real timings, so
# future PRs can't silently bit-rot the instance-layer benchmarks.
bench-columnar-smoke:
	{ $(GO) test -run '^$$' -bench '$(BENCH_COLUMNAR_PAT)' -benchtime 1x . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkMutationInsert' -benchtime 1x ./internal/incr/ ; } \
		| $(GO) run ./cmd/benchjson -before $(BENCH_COLUMNAR_BASELINE) \
		> /dev/null

# Enumeration benchmark gate: the paths the incremental universality check
# targets (the Enumerate walk and the core computation), diffed against the
# committed pre-incremental baseline (bench/pr7_baseline.txt, captured before
# PR 7's hom.Search.Extend / arc-consistency prefilter). Committed as
# BENCH_7.json.
BENCH_ENUM_OUT ?= BENCH_7.json
BENCH_ENUM_BASELINE ?= bench/pr7_baseline.txt
BENCH_ENUM_PAT := BenchmarkEnumerate_Workers|BenchmarkExample53_Enumeration|BenchmarkCWASolution_WeaklyAcyclic|BenchmarkCore_Blocks|BenchmarkCore_Naive
bench-enum:
	$(GO) test -run '^$$' -bench '$(BENCH_ENUM_PAT)' -benchmem . \
		| $(GO) run ./cmd/benchjson -before $(BENCH_ENUM_BASELINE) \
		> $(BENCH_ENUM_OUT)

# One-iteration pass over the same benches, like bench-columnar-smoke: keeps
# the gate runnable (bench code and baseline parse) without real timings.
bench-enum-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_ENUM_PAT)' -benchtime 1x . \
		| $(GO) run ./cmd/benchjson -before $(BENCH_ENUM_BASELINE) \
		> /dev/null

# Durable-store smoke (fsync off): register + mutate against a temp-dir
# store, clean restart (zero WAL replay, identical answers, base_version
# conflict preserved), crash restart (WAL tail replayed). See
# cmd/dxserver -smoke-store.
store-smoke:
	$(GO) run ./cmd/dxserver -smoke-store

# Cluster smoke: a three-node loopback cluster — register through one node,
# byte-identical reads through every entry, replicated-cache revalidation,
# optimistic-concurrency conflicts through non-owners, ring-consistent
# health. See cmd/dxserver -smoke-cluster.
cluster-smoke:
	$(GO) run ./cmd/dxserver -smoke-cluster

# Membership smoke: a three-node cluster under continuous traffic grows to
# four (live join with scenario handoff) and shrinks back by drain-leave —
# zero failed requests, and exactly the scenarios whose ring owner changed
# transferred. See cmd/dxserver -smoke-membership.
membership-smoke:
	$(GO) run ./cmd/dxserver -smoke-membership

# Durability benchmarks: cold-start recovery over a 10k-scenario genwl
# catalog (WAL-only vs snapshot-backed), the cold Load a paged query pays,
# the WAL append a registration pays before its 2xx, and paged vs resident
# query latency through the registry. Committed as BENCH_8.json.
BENCH_STORE_OUT ?= BENCH_8.json
BENCH_STORE_PAT := BenchmarkColdStart10k|BenchmarkLoadCold|BenchmarkWALAppendRegister
BENCH_STORE_SRV_PAT := BenchmarkQueryResident|BenchmarkQueryPaged
bench-store:
	{ $(GO) test -run '^$$' -bench '$(BENCH_STORE_PAT)' -benchmem ./internal/store/ ; \
	  $(GO) test -run '^$$' -bench '$(BENCH_STORE_SRV_PAT)' -benchmem ./internal/server/ ; } \
		| $(GO) run ./cmd/benchjson > $(BENCH_STORE_OUT)

# One-iteration pass over the same benches: keeps the gate runnable without
# real timings.
bench-store-smoke:
	{ $(GO) test -run '^$$' -bench '$(BENCH_STORE_PAT)' -benchtime 1x ./internal/store/ ; \
	  $(GO) test -run '^$$' -bench '$(BENCH_STORE_SRV_PAT)' -benchtime 1x ./internal/server/ ; } \
		| $(GO) run ./cmd/benchjson > /dev/null

# Cluster benchmarks: scenario throughput 1 vs 4 nodes on the genwl chain
# working set (the capacity-scaling demonstration; compare the nodes=1 and
# nodes=4 rows), plus the group-commit WAL appends diffed against the
# committed pre-group-commit baseline (bench/pr9_wal_baseline.txt).
# Committed as BENCH_9.json.
BENCH_CLUSTER_OUT ?= BENCH_9.json
BENCH_CLUSTER_BASELINE ?= bench/pr9_wal_baseline.txt
bench-cluster:
	{ $(GO) test -run '^$$' -bench 'BenchmarkClusterThroughput' -benchmem ./internal/server/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkWALAppendFsyncAlways' -benchmem ./internal/store/ ; } \
		| $(GO) run ./cmd/benchjson -before $(BENCH_CLUSTER_BASELINE) \
		> $(BENCH_CLUSTER_OUT)

# One-iteration pass over the same benches: keeps the gate runnable without
# real timings.
bench-cluster-smoke:
	{ $(GO) test -run '^$$' -bench 'BenchmarkClusterThroughput' -benchtime 1x ./internal/server/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkWALAppendFsyncAlways' -benchtime 1x ./internal/store/ ; } \
		| $(GO) run ./cmd/benchjson -before $(BENCH_CLUSTER_BASELINE) \
		> /dev/null

ci: vet vet-shadow build race race-server serve-smoke store-smoke cluster-smoke membership-smoke bench-smoke bench-columnar-smoke bench-enum-smoke bench-store-smoke bench-cluster-smoke
