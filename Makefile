GO ?= go

.PHONY: build test race vet fmt staticcheck perfbench-test bench-smoke fuzz-smoke serve-smoke dist-smoke check figures report

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
	$(GO) test -run '^$$' -bench 'EngineScheduleCall|EngineHold|DisabledInstruments' -benchtime 1x ./internal/sim ./internal/metrics

# fuzz-smoke runs each parser fuzz target for a few seconds. The
# distributed-protocol frame parser's Read must never panic on arbitrary
# bytes, and every message it accepts must survive a Write/Read round trip.
# The operator-graph JSON loader must never panic, and every graph it
# accepts must validate and replay to completion. The worker's strict cell
# spec decode must never panic, and every spec it accepts must have a
# canonical JSON form; its seeds are kilobyte specs, which the fuzzer
# would otherwise spend most of the run minimizing.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzRead -fuzztime 10s ./internal/distrib
	$(GO) test -run '^$$' -fuzz FuzzLoadJSON -fuzztime 10s ./internal/opgraph
	$(GO) test -run '^$$' -fuzz FuzzCellSpec -fuzztime 10s -fuzzminimizetime 1s ./internal/harness

# serve-smoke boots cmd/macrochipd on an ephemeral port with a throwaway
# cache, drives one tiny experiment through the HTTP API twice (the second
# must be a cache hit with byte-identical CSV), and requires a clean SIGTERM
# drain. Skips with a notice when curl is not installed.
serve-smoke:
	@sh scripts/serve_smoke.sh

# dist-smoke runs a tiny figure-6 panel serially and through three fleets —
# two spawned macrosim workers, one TCP worker, and one spawned worker
# beside one TCP worker — and requires byte-identical CSV plus proof (the
# dist summary) that cells actually crossed the wire, in the mixed fleet
# on both kinds of worker.
dist-smoke:
	@sh scripts/dist_smoke.sh

# check is the pre-merge gate: vet + formatting + lint + tests + race
# detector + repo-benchmark module tests + benchmark smoke + parser fuzz
# smoke + daemon smoke + distributed smoke.
check: vet fmt staticcheck test race perfbench-test bench-smoke fuzz-smoke serve-smoke dist-smoke

figures:
	$(GO) run ./cmd/figures -all

report:
	$(GO) run ./cmd/report
