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

# bench_run runs benchmark $(1) of package $(2) for $(3) iterations and
# keeps its output; unit_gate then fails if the value that run reported in
# unit $(2) for benchmark $(1) (allocs/op, events/op) exceeds $(3). These
# counts are exact at fixed inputs, so the gates hold work, not wall time,
# and do not flake.
bench_run = go test -run '^$$' -bench '^$(1)$$' -benchtime $(3) -benchmem $(2) | tee /tmp/openoptics-bench.txt
unit_gate = awk '/^$(1)/ { for (i = 3; i <= NF; i++) if ($$i == "$(2)") { seen=1; v=$$(i-1)+0 } } \
	END { if (!seen) { print "FAIL: $(1) reported no $(2)"; exit 1 } \
	if (v > $(3)) { printf "FAIL: $(1): %d $(2) exceeds the $(3) ceiling\n", v; exit 1 } \
	printf "$(1) $(2) gate: %d <= $(3)\n", v }' /tmp/openoptics-bench.txt

# One iteration of every benchmark in the repo: catches benchmarks that no
# longer compile or crash without paying for stable timings, then holds
# two paths to their budgets:
#   - the end-to-end hot path (100 iterations of 1 virtual ms): the pooled
#     packet lifecycle runs ~60 allocs/op at steady state, so anything
#     above 150 means a leaked per-packet or per-event allocation crept
#     back in; and one event per hop makes 19,228 events/op, so one more
#     event per packet (~1,000 packets/op) or an unfused hop (27,900)
#     trips the 19,500 ceiling;
#   - the same path with the registry built and every packet traced
#     (BenchmarkTelemetryEnabled) under the same events/op ceiling:
#     telemetry only reads, so it must schedule no event;
#   - the HOHO compile of the 12-node round robin: ~12k allocs/op with one
#     reused search per (source, slice); per-destination searches or
#     unreused search buffers take it past 30k.
# CI runs this.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...
	$(call bench_run,BenchmarkEndToEndPacketRate,.,100x)
	$(call unit_gate,BenchmarkEndToEndPacketRate,allocs/op,150)
	$(call unit_gate,BenchmarkEndToEndPacketRate,events/op,19500)
	$(call bench_run,BenchmarkTelemetryEnabled,.,100x)
	$(call unit_gate,BenchmarkTelemetryEnabled,events/op,19500)
	$(call bench_run,BenchmarkHOHO,./internal/routing,3x)
	$(call unit_gate,BenchmarkHOHO,allocs/op,30000)

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
