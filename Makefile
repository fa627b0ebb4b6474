# Tier-1: what every change must keep green.
.PHONY: build test check bench bench-smoke sweep-smoke obsv-smoke trace-smoke

build:
	go build ./...

test: build
	go test ./...

# Tier-2 gate: formatting (gofmt -l lists nothing) and static analysis,
# every test workload under simdebug (a past-time schedule or a pool
# double-free/use-after-free panics there),
# the race detector over the engine and all device/protocol packages, and
# the system-level invariant bundle. CI runs this target. experiments/ is
# excluded from the simdebug and race passes only because its drivers
# regenerate entire paper tables (~10x slower under -race, past any sane
# CI budget); it holds no goroutines of its own and is covered by the
# tier-1 `make test`.
check: build
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	go vet ./...
	go build -tags simdebug ./...
	go test -tags simdebug . ./cmd/... ./internal/...
	go test -race . ./cmd/... ./internal/...
	go test -run TestInvariants .

bench:
	go test -run xxx -bench . -benchtime 3x .

# One iteration of every benchmark in the repo: catches benchmarks that no
# longer compile or crash without paying for stable timings, then holds the
# end-to-end hot path to its allocation budget — the pooled packet
# lifecycle runs ~24 allocs/op at steady state, so anything above 150
# means a leaked per-packet or per-event allocation crept back in. CI runs
# this.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...
	go test -run '^$$' -bench 'BenchmarkEndToEndPacketRate$$' -benchtime 100x -benchmem . | tee /tmp/openoptics-allocs.txt
	awk '/^BenchmarkEndToEndPacketRate/ { seen=1; a=$$(NF-1)+0; if (a > 150) { printf "FAIL: %d allocs/op exceeds the 150 ceiling\n", a; exit 1 } printf "allocs/op gate: %d <= 150\n", a } END { if (!seen) { print "FAIL: benchmark did not run"; exit 1 } }' /tmp/openoptics-allocs.txt

# Race-detector smoke of the sweep orchestrator: a tiny grid on 4 workers,
# run fresh then resumed (the resume must skip everything). CI runs this.
sweep-smoke:
	rm -rf /tmp/oosweep-smoke
	go run -race ./cmd/oosweep run -spec testdata/sweep_smoke.json -out /tmp/oosweep-smoke -jobs 4
	go run -race ./cmd/oosweep resume -spec testdata/sweep_smoke.json -out /tmp/oosweep-smoke -jobs 4

# Live-observability smoke: oosim -http serving mid-run, /metrics and
# /snapshot well-formed, ooctl watch renders a frame, SIGINT exits 130.
# The obsv package itself runs under -race as part of `make check`.
obsv-smoke:
	bash scripts/obsv_smoke.sh

# Trace-analytics smoke: oosim -trace-out through every `ooctl trace` view,
# attribution identity clean, Perfetto export valid and deterministic,
# corrupt-line tolerance surfaced. CI runs this.
trace-smoke:
	bash scripts/trace_smoke.sh
