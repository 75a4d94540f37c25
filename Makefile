GO ?= go
DATE := $(shell date +%Y%m%d)

.PHONY: build test check vet race bench bench-smoke bench-gate fuzz-smoke fmt lint validate-descriptions

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# fmt fails when any file is not gofmt-clean, printing the offenders.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# lint runs the repo's invariant linter (DESIGN.md §10, §15): the
# whole-program fact-based driver type-checks dependency-ready packages in
# parallel and runs all ten checks module-wide. Exit 1 on any finding,
# exit 2 when any package fails to load (partial analysis never passes).
# TestLoadTimingGuard in internal/lint keeps the whole-module run inside
# its time budget and asserts the driver actually runs parallel.
lint:
	$(GO) run ./cmd/excovery-lint ./...

# validate-descriptions runs excovery-validate over every shipped
# description, so a scenario that no longer validates fails the gate the
# same way a broken test would ("Experiments as Code").
validate-descriptions:
	@set -e; for f in descriptions/*.xml; do \
		$(GO) run ./cmd/excovery-validate $$f >/dev/null; \
		echo "validated $$f"; \
	done

# check is the tier-1 gate (see ROADMAP.md): formatting, static analysis
# (go vet plus the invariant linter), description validation, and the
# full suite under the race detector.
check: fmt vet lint validate-descriptions race

# bench records all benchmarks (with allocations) as a dated JSON stream
# of go test events, comparable across sessions with excovery-bench or
# plain jq. Every benchmark runs five times; excovery-bench reduces the
# repeats to the per-unit median. It also appends a one-line Fig. 3
# allocs/op delta against the newest prior BENCH_*.json to CHANGES.md.
bench:
	$(GO) test -json -run='^$$' -bench=. -count=5 -benchmem ./... | tee BENCH_$(DATE).json
	@$(GO) run ./cmd/excovery-bench -changes BENCH_$(DATE).json >> CHANGES.md && tail -1 CHANGES.md

# bench-gate replays the gate CI runs: a fresh recording checked against
# bench-thresholds.json vs the newest committed BENCH_*.json. 20
# iterations amortize per-benchmark setup so allocs/op and B/op are
# comparable with the committed full-length recordings (-benchtime=1x
# would charge the whole setup to a single op); timing units are not
# gated.
bench-gate:
	$(GO) test -json -run='^$$' -bench=. -benchtime=20x -benchmem ./... > BENCH_gate.json
	@$(GO) run ./cmd/excovery-bench -check bench-thresholds.json BENCH_gate.json; \
		rc=$$?; rm -f BENCH_gate.json; exit $$rc

# bench-smoke runs every benchmark exactly once — no timings, just proof
# that none of them panic or fail. Wired into CI.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# fuzz-smoke fuzzes each untrusted-input parser for ten seconds: the
# level-3 file parser (reldb.Load must never panic and must accept only
# what Save writes), XML-RPC request/response decoding (no panic), and the
# description front end (parse → Validate → GeneratePlan: no panic, and
# every description Validate accepts plans). A failing input lands in the
# package's testdata/fuzz/ and then replays as a plain test case under
# `go test`. Wired into CI.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzLoad -fuzztime=10s ./internal/store/reldb/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeCall -fuzztime=10s ./internal/xmlrpc/
	$(GO) test -run='^$$' -fuzz=FuzzParsePlan -fuzztime=10s ./internal/desc/
