GO ?= go

.PHONY: build test race lint lint-stats check chaos stress bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Only hvaclint, with per-analyzer counts and wall time: the fast
# pre-commit path. RULES=a,b restricts the run to named analyzers.
# The full gate (make check) still runs build/vet/gofmt/tests around it.
lint:
	$(GO) run ./cmd/hvaclint -stats $(if $(RULES),-rules $(RULES)) ./...

# Per-analyzer wall time without the findings stream: -stats writes to
# stderr, stdout is dropped. Keeps suite growth accountable — a new
# analyzer that doubles lint time shows up here, named.
lint-stats:
	@$(GO) run ./cmd/hvaclint -stats $(if $(RULES),-rules $(RULES)) ./... > /dev/null || true

# The full gate: what CI runs, and what a change must pass before review.
check:
	./scripts/check.sh

# The chaos tier: seeded fault schedules over real TCP clusters, under the
# race detector with shuffled test order (DESIGN.md §7).
chaos:
	$(GO) test -race -shuffle=on -v -run Chaos ./internal/core
	$(GO) test -race -shuffle=on -v ./internal/faultnet ./internal/testutil
	$(GO) test -race -shuffle=on -v -run 'Retry|Call|TimedOut|Truncated' ./internal/transport

# The stress tier: loops over the two races the single-serve-path design
# closes — a fill publishing its key before the bytes reach the content
# path, and a handle close racing its first read. Every iteration must
# pass.
stress:
	$(GO) test -count=50 -run TestConcurrentPutsAndReads ./internal/cachestore
	$(GO) test -race -count=30 -run TestChaosHedgeRaceWithClose ./internal/core

# The short benchmark tier: fixed iteration counts; results land next to
# the committed pre-PR baselines in BENCH_PR4.json (hot path) and
# BENCH_PR5.json (cold path + batched small files).
bench:
	./scripts/bench.sh
