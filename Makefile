GO ?= go

.PHONY: build test race vet fmt staticcheck perfbench-test bench-smoke fuzz-smoke bench-json serve-smoke dist-smoke check figures report

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector; the parallel experiment
# harness must stay race-clean at every worker count.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# staticcheck runs honnef.co/go/tools if it is on PATH and is a no-op (with
# a notice) otherwise, so `make check` needs no network access; CI installs
# the tool explicitly.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# perfbench-test vets and tests the repo benchmark (perfbench/), which is a
# separate Go module that imports the harness API, so neither `go test ./...`
# nor the targets above build it.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# bench-smoke compiles and runs each pinned benchmark once — enough to catch
# a benchmark that no longer builds or an allocation-guard regression that
# panics, without timing noise.
bench-smoke:
	$(GO) test -run '^$$' -bench 'EngineSchedule|EngineScheduleCall|DisabledInstruments' -benchtime 1x ./internal/sim ./internal/metrics

# fuzz-smoke runs the distributed-protocol frame parser's fuzz target for a
# few seconds: Read must never panic on arbitrary bytes, and every message
# it accepts must survive a Write/Read round trip.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzRead -fuzztime 10s ./internal/distrib

# bench-json regenerates the committed kernel-performance baseline: the
# per-network load-point benchmarks, the miniature full sweep (uncached and
# cold-cache variants), the operator-graph replay benchmarks, and the
# distributed-sweep benchmark (the same miniature sweep through 1/2/4
# in-process pipe workers vs serial — the delta is the per-cell
# distribution tax), captured both in raw `go test -bench` form
# ($(BENCH_BASELINE).txt, for benchstat) and as JSON ($(BENCH_BASELINE).json,
# for dashboards and PR-to-PR diffs). BENCH_BASELINE names the committed
# files; bump it per baseline-refreshing PR so history stays diffable.
BENCH_COUNT ?= 5
BENCH_BASELINE ?= BENCH_pr10
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkRunLoadPoint|BenchmarkLoadSweep|BenchmarkOpGraphReplay|BenchmarkInferenceSweep|BenchmarkDistributedSweep' \
		-benchmem -count $(BENCH_COUNT) ./internal/harness | tee $(BENCH_BASELINE).txt
	$(GO) run ./cmd/benchjson < $(BENCH_BASELINE).txt > $(BENCH_BASELINE).json

# serve-smoke boots cmd/macrochipd on an ephemeral port with a throwaway
# cache, drives one tiny experiment through the HTTP API twice (the second
# must be a cache hit with byte-identical CSV), and requires a clean SIGTERM
# drain. Skips with a notice when curl is not installed.
serve-smoke:
	@sh scripts/serve_smoke.sh

# dist-smoke runs a tiny figure-6 panel serially and through a coordinator
# with two locally spawned macrosim workers, and requires byte-identical
# CSV plus proof (the dist summary) that cells actually crossed the wire.
dist-smoke:
	@sh scripts/dist_smoke.sh

# check is the pre-merge gate: vet + formatting + lint + tests + race
# detector + repo-benchmark module tests + benchmark smoke + frame-parser
# fuzz smoke + daemon smoke + distributed smoke.
check: vet fmt staticcheck test race perfbench-test bench-smoke fuzz-smoke serve-smoke dist-smoke

figures:
	$(GO) run ./cmd/figures -all

report:
	$(GO) run ./cmd/report
