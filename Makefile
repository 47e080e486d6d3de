# Correctness gate for the Magnet reproduction. `make check` is what CI
# runs: build, tests, go vet, the repo's own magnet-vet analyzers, the race
# detector, short fuzz passes over the parser and tokenizer, and one pass
# over every benchmark.

GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race vet magnet-vet vet-budget fuzz race-par obs-check bench-smoke segments segments-check check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The project's own static analyzers (internal/analysis): per-package
# invariants (locking discipline, float equality, error wrapping,
# map-iteration determinism, context-first signatures) plus the
# interprocedural passes (hot-path allocation freedom, publish-then-freeze
# immutability, cross-call lock requirements). Findings are filtered
# through the committed baseline; anything new — or any stale baseline
# entry — exits non-zero.
magnet-vet:
	$(GO) run ./cmd/magnet-vet -baseline magnet-vet.baseline ./...

# Wall-clock guard for the analysis suite: the interprocedural engine
# (module load, call graph, fact fixpoints) must stay fast enough to run
# on every check. Prints the measured time and fails past VETBUDGET
# seconds. The budget is deliberately generous — it catches regressions
# that make the fixpoint quadratic, not scheduler jitter.
VETBUDGET ?= 60
vet-budget:
	@$(GO) build -o /tmp/magnet-vet-budget ./cmd/magnet-vet
	@start=$$(date +%s); \
	/tmp/magnet-vet-budget -baseline magnet-vet.baseline ./... || exit 1; \
	end=$$(date +%s); elapsed=$$((end-start)); \
	echo "magnet-vet wall clock: $${elapsed}s (budget $(VETBUDGET)s)"; \
	if [ $$elapsed -gt $(VETBUDGET) ]; then \
		echo "magnet-vet exceeded its $(VETBUDGET)s budget" >&2; exit 1; \
	fi

# Short fuzz passes over every fuzz target; bump FUZZTIME for a deeper run.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/qlang/
	$(GO) test -run='^$$' -fuzz=FuzzTokenize -fuzztime=$(FUZZTIME) ./internal/text/
	$(GO) test -run='^$$' -fuzz=FuzzStem -fuzztime=$(FUZZTIME) ./internal/text/
	$(GO) test -run='^$$' -fuzz=FuzzReadNTriples -fuzztime=$(FUZZTIME) ./internal/rdf/
	$(GO) test -run='^$$' -fuzz=FuzzItemSetOps -fuzztime=$(FUZZTIME) ./internal/itemset/
	$(GO) test -run='^$$' -fuzz=FuzzSegmentHeader -fuzztime=$(FUZZTIME) ./internal/segment/
	$(GO) test -run='^$$' -fuzz=FuzzManifest -fuzztime=$(FUZZTIME) ./internal/segment/
	$(GO) test -run='^$$' -fuzz=FuzzColumnImage -fuzztime=$(FUZZTIME) ./internal/segment/
	$(GO) test -run='^$$' -fuzz=FuzzPlanEquivalence -fuzztime=$(FUZZTIME) ./internal/plan/
	$(GO) test -run='^$$' -fuzz=FuzzVectorKernel -fuzztime=$(FUZZTIME) ./internal/index/

# Focused race pass over the parallel pipeline: the internal/par pool
# stress tests, every serial-vs-parallel equivalence/determinism test, and
# concurrent first reads of freshly frozen stores (lazy key strings, term
# table and row cache).
race-par:
	$(GO) test -race -run 'Pool|Submit|Batch|Panic|Cancel|Nested|Parallel|Equiv|Determinism|Merge|ByAdvisor|Centroid|ConcurrentReaders' \
		./internal/par/ ./internal/blackboard/ ./internal/facets/ ./internal/index/ ./internal/vsm/ ./internal/rdf/

# Observability gate: the flight-recorder and exposition goldens (ring
# retention, Prometheus text format, /debug/traces JSON) plus the
# recorder's concurrency tests under the race detector, and the
# end-to-end slow-step capture through the web layer and the session.
obs-check:
	$(GO) test -race ./internal/obs/
	$(GO) test -race -run 'FlightRecorder|SlowStep' ./internal/web/ ./internal/core/

# Every benchmark, run once: keeps each one compiling and running without
# the cost of a timed run, and writes no file. Performance is measured
# end to end through HTTP by clickbench (clickbench/README.md).
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Compile the standard segment sets for serving: a 2,000-recipe corpus
# (the paper's has 6,444; magnet-build's default) and the inbox dataset,
# into segments/.
segments:
	$(GO) run ./cmd/magnet-build -out segments/recipes -dataset recipes -recipes 2000
	$(GO) run ./cmd/magnet-build -out segments/inbox -dataset inbox

# End-to-end durability gate for the on-disk format: build a small set,
# verify it, corrupt one payload byte and confirm verification rejects it,
# then rebuild and confirm serving output is byte-identical to in-memory
# (the magnet-eval fig1 render over both backings).
segments-check:
	@rm -rf /tmp/magnet-segcheck && set -e; \
	$(GO) run ./cmd/magnet-build -out /tmp/magnet-segcheck -recipes 100; \
	$(GO) run ./cmd/magnet-build -verify /tmp/magnet-segcheck; \
	printf '\xff' | dd of=/tmp/magnet-segcheck/graph.seg bs=1 seek=4096 count=1 conv=notrunc status=none; \
	if $(GO) run ./cmd/magnet-build -verify /tmp/magnet-segcheck 2>/dev/null; then \
		echo "segments-check: corrupted set passed verification" >&2; exit 1; \
	fi; \
	echo "segments-check: corruption detected as expected"; \
	$(GO) run ./cmd/magnet-build -out /tmp/magnet-segcheck -recipes 100; \
	$(GO) run ./cmd/magnet-eval -exp fig1 -recipes 100 > /tmp/magnet-segcheck-mem.txt; \
	$(GO) run ./cmd/magnet-eval -exp fig1 -recipes 100 -segments /tmp/magnet-segcheck > /tmp/magnet-segcheck-seg.txt; \
	cmp /tmp/magnet-segcheck-mem.txt /tmp/magnet-segcheck-seg.txt; \
	echo "segments-check: segment-backed render byte-identical"; \
	rm -rf /tmp/magnet-segcheck /tmp/magnet-segcheck-mem.txt /tmp/magnet-segcheck-seg.txt

check: build vet vet-budget test race race-par obs-check fuzz segments-check bench-smoke
