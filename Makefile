# Convenience targets; CI runs the same commands (see .github/workflows/ci.yml).

.PHONY: build test race bench bench-smoke determinism cover fuzz-smoke lint live-smoke perfbench-check

# staticcheck is pinned so local runs and CI agree on findings; when the
# binary is absent (offline sandboxes), lint still runs simlint + go vet
# and prints a skip notice instead of failing.
STATICCHECK_VERSION := 2025.1.1
STATICCHECK := $(shell command -v staticcheck 2>/dev/null)

build:
	go build ./...

test:
	go test ./...

# perfbench-check vets and tests the host-time benchmark. perfbench/ is
# a module of its own (it imports this one through a replace), so the
# root go vet/go test ./... never reach its code or its tests.
perfbench-check:
	go -C perfbench vet .
	go -C perfbench test .

race:
	go test -race ./...
	go test -race -count=1 -run 'Deterministic|Parallel' ./internal/...

# live-smoke exercises the netapi/livenet backend over real loopback
# sockets (a UDP + TLS DNS responder on 127.0.0.1 ephemeral ports) and
# runs the backend conformance suite against simnet and livenet, all
# under the race detector. Hermetic: no external network access.
live-smoke:
	go test -race -count=1 ./internal/netapi/...

# lint runs the repo's own analyzer suite (cmd/simlint: determinism,
# pool-ownership, hot-path, layering, and backend-purity rules), go vet,
# and staticcheck.
# simlint fails on any finding not covered by a //simlint:allow pragma or
# the layering ratchet baseline (internal/lint/layering_baseline.txt).
lint:
	go run ./cmd/simlint ./...
	go vet ./...
ifdef STATICCHECK
	staticcheck ./...
else
	@echo "lint: staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"
endif

# bench records a benchmark-trajectory point (ns/op, B/op, allocs/op,
# parallel speedup, suite wall time / peak RSS / pool counters) to
# BENCH_PR7.json. Takes a few minutes: every experiment benchmark reruns
# its campaign 3 times, plus one full suite run for telemetry.
bench:
	go run ./cmd/bench -count 3 -out BENCH_PR7.json

# cover prints the per-function coverage summary CI publishes.
cover:
	go test -coverprofile=/tmp/cover.out ./...
	go tool cover -func=/tmp/cover.out | tail -20

# fuzz-smoke runs each fuzz target briefly against its seed corpus plus
# fresh mutations; crashes land in testdata/fuzz as regression inputs.
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzDecode -fuzztime 10s ./internal/dnsmsg
	go test -run '^$$' -fuzz FuzzDecodeMessage -fuzztime 10s ./internal/tlsmini
	go test -run '^$$' -fuzz FuzzServerRecords -fuzztime 10s ./internal/tlsmini
	go test -run '^$$' -fuzz FuzzParseFrames -fuzztime 10s ./internal/quic

# bench-smoke compiles and runs every benchmark for one iteration, so
# benchmarks cannot bit-rot.
bench-smoke:
	go test -run XXX -bench . -benchtime 1x ./...

# determinism builds cmd/experiments once and checks that the whole
# suite's stdout is byte-identical at -parallel 1, 2 and 8.
determinism:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	go build -o $$dir/experiments ./cmd/experiments && \
	for p in 1 2 8; do $$dir/experiments -parallel $$p > $$dir/p$$p.txt || exit 1; done && \
	cmp $$dir/p1.txt $$dir/p2.txt && cmp $$dir/p1.txt $$dir/p8.txt && \
	echo "determinism: reports byte-identical at -parallel 1, 2 and 8"
