# Tier-1 verification for the tiptop reproduction. `make verify` is
# what CI runs; the go.mod at the repo root is load-bearing — without it
# every target here fails with "directory prefix . does not contain
# main module".

GO ?= go

.PHONY: verify fmt build vet test race bench fuzz docs validate loc loc-check

verify: fmt build vet race docs loc-check

# The tree must be gofmt-clean; print the offenders and fail otherwise.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# -shuffle=on randomizes test (and subtest) execution order each run,
# so order-dependent tests fail here instead of flaking later.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# The docs gate: flags, endpoints, make targets, backticked identifiers
# and backticked internal/, cmd/ and examples/ paths named in README.md
# and ARCHITECTURE.md must exist in the source (stale docs fail the
# build).
# The Example functions run under `go test`, so the documented snippets
# are covered by race/test above.
docs:
	./scripts/check-docs.sh

# Short coverage-guided passes over the metric-expression parser and
# evaluator, the query-layer compiler, the store's frame decoder (v5,
# with its event lists, refresh counts and derived-column headers, the
# v4 frames the previous build wrote, and the refusal of older ones),
# compaction's frame transcoder against that decoder, and the wire
# encoders and decoders;
# CI runs them so a grammar change that
# panics, breaks the canonical rendering fixpoint, lets a non-finite
# value through the totality rule, lets the engine's slot-bound column
# evaluation drift from Expr.Eval or a lane of the column kernel from
# its row evaluated alone, makes the store's frame reader or
# either wire decoder (binary, JSON + SSE) panic/over-read on corrupt
# bytes or accept a newer version, lets a hand-written JSON encoder
# (the wire sample's, the query responses') drift from encoding/json, or
# lets the one-pass JSON sample decoder answer differently from
# json.Unmarshal, or lets the /metrics integer path drift from
# strconv.AppendFloat, or lets a teed recorder's History read
# differently from a plain reference of its window rule (the newest
# Capacity refreshes), or lets a -config file's definitions fail to
# round-trip or get a different verdict from the facade's
# Config.Validate, is caught before it lands. That last one minimizes in at most 100 runs: a
# definitions document costs about a millisecond, and the default 60 s
# of minimizing would eat its whole pass.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParseExpr$$' -fuzztime 15s ./internal/metrics/
	$(GO) test -run '^$$' -fuzz '^FuzzBoundEvalMatchesEnv$$' -fuzztime 15s ./internal/metrics/
	$(GO) test -run '^$$' -fuzz '^FuzzEvalRowsMatchesOne$$' -fuzztime 15s ./internal/metrics/
	$(GO) test -run '^$$' -fuzz '^FuzzCompileQuery$$' -fuzztime 15s ./internal/query/
	$(GO) test -run '^$$' -fuzz '^FuzzQueryJSONIdentity$$' -fuzztime 15s ./internal/query/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 15s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzTranscodeMatchesDecode$$' -fuzztime 15s ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzOpenMetricsValueIdentity$$' -fuzztime 15s ./internal/export/
	$(GO) test -run '^$$' -fuzz '^FuzzWireJSONIdentity$$' -fuzztime 15s ./internal/remote/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBinary$$' -fuzztime 15s ./internal/remote/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeWire$$' -fuzztime 15s ./internal/remote/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeJSONIdentity$$' -fuzztime 15s ./internal/remote/
	$(GO) test -run '^$$' -fuzz '^FuzzRingMatchesReference$$' -fuzztime 15s ./internal/history/
	$(GO) test -run '^$$' -fuzz '^FuzzDefinitionsRoundTrip$$' -fuzztime 15s -fuzzminimizetime 100x ./internal/config/

# The counter-validation oracle (§2.4): every ukernel.ValidationSuite
# micro-kernel runs on all four machine models through the sim monitor,
# a recorder and a default store, and its measured counts are asserted
# layer by layer (session deltas, mux extrapolation, store round-trip,
# derived query expressions) against the analytic expectations. Writes results/VALIDATE.json; exits non-zero when any
# muxed layer is off by more than 5% or any unconstrained count is
# inexact.
validate:
	$(GO) run ./cmd/tipbench -validate -out results

# The ruler: bench/ runs every BENCHMARK.json workload against one
# daemon (bench/rig.go composes it by hand, as tiptop.Daemon does) and writes
# results/bench/report.json (end-to-end metrics gated by the bounds in
# BENCHMARK.json, per-layer metrics beside them). The go test lines are
# for eyeballing one refresh of 1000 and 4000 tasks, one refresh of 2000
# known tasks folded into a recorder, one /metrics encode of 2000, one
# range query of a 2000-task store in each of four dashboard shapes, and
# one 2000-task refresh read off the stream in each wire encoding; their allocation budgets are asserted by
# TestUpdateAllocsFlat, TestObserveSteadyStateAllocations,
# TestScrapeEncodeSteadyAllocs, TestDashboardQueryAllocs and
# TestDecodeJSONAllocs.
bench:
	$(GO) run ./bench
	$(GO) test -run xxx -bench 'BenchmarkUpdate[0-9]+$$' -benchmem ./internal/core/
	$(GO) test -run xxx -bench 'BenchmarkObserve2000$$' -benchmem ./internal/history/
	$(GO) test -run xxx -bench 'BenchmarkScrapeEncode2000' -benchmem .
	$(GO) test -run xxx -bench 'BenchmarkDashboardQuery2000' -benchmem ./internal/query/
	$(GO) test -run xxx -bench 'BenchmarkDecode(JSON|Binary)2000' -benchmem ./internal/remote/

# Non-test Go lines outside bench/: the size ROADMAP aim 2 tracks and
# the count issues and CHANGES.md entries quote.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

# The size gate: `make loc` must not exceed scripts/loc-budget. A change
# that needs more code raises the budget in its own diff.
loc-check:
	./scripts/check-loc.sh
