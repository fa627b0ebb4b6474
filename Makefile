# Tier-1: what every change must keep green.
.PHONY: build test check bench bench-smoke sweep-smoke simbench-smoke

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

# The frozen benchmark (simbench/, a Go module of its own that the root
# `go build ./...` does not reach): vet and test it, then run every
# workload for one second at seed 7 and require the last stdout line of
# each run to report "correct":true. CI runs this.
SIMBENCH_WORKLOADS := vlb-rpc clos-hadoop daware-hotswap
simbench-smoke:
	cd simbench && go vet ./... && go test ./...
	@for w in $(SIMBENCH_WORKLOADS); do \
		out="$$(bash simbench/run.sh --workload $$w --seed 7 --seconds 1 --trace 0)" || exit 1; \
		last="$$(printf '%s\n' "$$out" | tail -n 1)"; \
		case "$$last" in \
		*'"correct":true'*) echo "simbench $$w: correct" ;; \
		*) echo "FAIL: simbench $$w: $$last"; exit 1 ;; \
		esac; \
	done
