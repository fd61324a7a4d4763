GO ?= go

.PHONY: all build vet vet-shadow fmt-check test race race-server dxbench-vet dxbench-test bench-smoke ci

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

# Fails when any file is not gofmt-clean, listing the offenders.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The parallel evaluation paths (certain.ForEachRep, cwa.Enumerate,
# cwa.Incomparable) are exercised under the race detector; the
# worker-invariance crosscheck tests double as race workloads. This also
# runs cmd/dxserver's test of the real binary (boot, SIGTERM drain, durable
# restart, flag guards).
race:
	$(GO) test -race ./...

# Focused race pass over the server stack: the admission gate, the LRU
# caches, the registry's single-flight memos, and the metrics scrape-during-
# enumeration workload.
race-server:
	$(GO) test -race -count=1 ./internal/server/... ./internal/status/... ./internal/metrics/...

# dxbench is a separate module (dxbench/go.mod) that imports internal/incr,
# internal/store and internal/server, and `go build ./...` at the root skips
# it. Vetting it in ci type-checks it against the current packages, so an
# API break surfaces here rather than when the benchmark runs.
dxbench-vet:
	cd dxbench && GOWORK=off $(GO) vet .

# `go test ./...` at the root skips dxbench's tests too, yet its oracle and
# counter-repeat tests exercise internal/certain and the server. Run its vet
# and race-enabled tests here. Not yet in ci: TestQueryMissCountersRepeat still requires rep_visited > 0
# on query-miss, a counter its pure UCQs no longer move (see ROADMAP.md).
dxbench-test:
	cd dxbench && GOWORK=off $(GO) vet . && GOWORK=off $(GO) test -race -count=1 .

# One iteration of every benchmark: catches bit-rot in the Benchmark*
# functions without waiting for statistically meaningful timings. The
# service benchmark is `bash dxbench/run.sh` (see BENCHMARK.json).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

ci: vet vet-shadow fmt-check build dxbench-vet race race-server bench-smoke
