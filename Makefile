# Correctness gate for the Magnet reproduction. `make check` is what CI
# runs: build, tests, go vet, the repo's own magnet-vet analyzers, the race
# detector, short fuzz passes over the parser and tokenizer, the behaviour
# contract, and one pass over every benchmark.

GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race vet magnet-vet vet-budget fuzz race-par obs-check contract build-contract bench-smoke segments segments-check check

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
# immutability, cross-call lock requirements, no function without a
# non-test use). Findings are filtered
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
	$(GO) test -run='^$$' -fuzz=FuzzVectorKernel -fuzztime=$(FUZZTIME) ./internal/index/
	$(GO) test -run='^$$' -fuzz=FuzzVectorRowsFinite -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzPageWriters -fuzztime=$(FUZZTIME) ./internal/web/

# Focused race pass over the parallel pipeline: the internal/par pool
# stress tests, every serial-vs-parallel equivalence/determinism test, and
# concurrent first reads of freshly frozen stores (lazy key strings, the
# graph's term table, the schema store's annotation slots and the vector
# store's scratch vectors).
race-par:
	$(GO) test -race -run 'Pool|Batch|Panic|Cancel|Nested|Parallel|Equiv|Determinism|Merge|ByAdvisor|Centroid|ConcurrentReaders|AnnotationFacts|SharingNoTerm' \
		./internal/par/ ./internal/blackboard/ ./internal/facets/ ./internal/index/ ./internal/vsm/ ./internal/rdf/ ./internal/schema/

# Observability gate: the flight-recorder and exposition goldens (ring
# retention, Prometheus text format, /debug/traces JSON) plus the
# recorder's concurrency tests under the race detector, and the
# end-to-end slow-step capture through the web layer and the session, and
# the web layer's lock-wait and render stages.
obs-check:
	$(GO) test -race ./internal/obs/
	$(GO) test -race -run 'FlightRecorder|SlowStep|WebStage' ./internal/web/ ./internal/core/

# Behaviour contract: every magnet-eval experiment's render must hash to the
# committed digest. A change that alters one rendered byte fails here; when
# the new bytes are intended, write the new digest to the file with the
# change that explains them.
CONTRACT := cmd/magnet-eval/testdata/exp-all.sha256
contract:
	@want=$$(cat $(CONTRACT)); \
	got=$$($(GO) run ./cmd/magnet-eval -exp all | sha256sum | cut -d' ' -f1); \
	if [ "$$got" != "$$want" ]; then \
		echo "contract: magnet-eval -exp all sha256 $$got, want $$want ($(CONTRACT))" >&2; exit 1; \
	fi; \
	echo "contract: magnet-eval -exp all sha256 $$got"

# Build contract: magnet-build's output — all five files of a segment set —
# must hash to the committed digests for a 500-recipe corpus, the inbox
# (whose body property composes) and the courses catalogue (which hides a
# predicate). A change that moves one segment byte fails here; when the new
# bytes are intended, rewrite the digest file with the change that explains
# them (run the target and copy its got file over $(BUILD_CONTRACT)).
BUILD_CONTRACT := cmd/magnet-build/testdata/segments.sha256
BUILD_CONTRACT_DIR := /tmp/magnet-build-contract
build-contract:
	@rm -rf $(BUILD_CONTRACT_DIR) && set -e; \
	$(GO) build -o $(BUILD_CONTRACT_DIR)/magnet-build ./cmd/magnet-build; \
	$(BUILD_CONTRACT_DIR)/magnet-build -out $(BUILD_CONTRACT_DIR)/recipes-500 -recipes 500 > /dev/null; \
	$(BUILD_CONTRACT_DIR)/magnet-build -out $(BUILD_CONTRACT_DIR)/inbox -dataset inbox > /dev/null; \
	$(BUILD_CONTRACT_DIR)/magnet-build -out $(BUILD_CONTRACT_DIR)/courses -dataset courses > /dev/null; \
	(cd $(BUILD_CONTRACT_DIR) && sha256sum recipes-500/* inbox/* courses/*) > $(BUILD_CONTRACT_DIR)/got.sha256; \
	if ! diff -u $(BUILD_CONTRACT) $(BUILD_CONTRACT_DIR)/got.sha256 >&2; then \
		echo "build-contract: magnet-build output differs from $(BUILD_CONTRACT) (got $(BUILD_CONTRACT_DIR)/got.sha256)" >&2; exit 1; \
	fi; \
	echo "build-contract: $$(wc -l < $(BUILD_CONTRACT)) segment files match $(BUILD_CONTRACT)"; \
	rm -rf $(BUILD_CONTRACT_DIR)

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

check: build vet vet-budget test race race-par obs-check fuzz segments-check contract build-contract bench-smoke
