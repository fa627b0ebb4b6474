# Tier-1: what every change must keep green.
.PHONY: build test check bench bench-smoke sweep-smoke simbench-smoke fuzz-smoke netlines

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
#     packet lifecycle and the event calendar's intrusive lists run 1
#     alloc/op at steady state, so anything above 5 means a leaked
#     per-packet (~1,000 packets/op) or per-event allocation crept back
#     in; and one event per hop makes 19,228 events/op, so one more event
#     per packet or an unfused hop (27,900) trips the 19,500 ceiling;
#   - the same path with the registry built and every packet traced
#     (BenchmarkTelemetryEnabled) under the same events/op ceiling:
#     telemetry only reads, so it must schedule no event;
#   - the TCP hot path (BenchmarkTCPHotPath, 20 iterations of 1 virtual ms
#     of an 8-node RotorNet under RPC flows): 251,582 events/op and 379
#     allocs/op, mostly the connections themselves; a closure per RTO arm
#     (891) or a per-flow receive map (+~1,100) trips the 400 ceiling, and
#     one more event per packet the 255,000 one;
#   - the same TCP path under TDTCP at seven divisions
#     (BenchmarkTCPHotPathTDTCP): 251,916 events/op under the same
#     ceiling and 1,409 allocs/op, a few per connection for its division
#     states and in-flight FIFO; a map per connection or per ACK for the
#     division bookkeeping (1,931) trips the 1,450 ceiling;
#   - the HOHO compile of the 12-node round robin: ~12k allocs/op with one
#     reused search per (source, slice); per-destination searches or
#     unreused search buffers take it past 30k;
#   - the static-graph compiles, which read every destination off one hop
#     tree per source (per source and slice for Opera): Opera on a 16-node
#     2-uplink round robin makes 14,366 allocs/op and WCMP on the 16-node
#     3-uplink uniform mesh 3,119; a map-backed search per destination
#     (54,660 and 6,339) trips the 16,000 and 3,500 ceilings.
# CI runs this.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...
	$(call bench_run,BenchmarkEndToEndPacketRate,.,100x)
	$(call unit_gate,BenchmarkEndToEndPacketRate,allocs/op,5)
	$(call unit_gate,BenchmarkEndToEndPacketRate,events/op,19500)
	$(call bench_run,BenchmarkTelemetryEnabled,.,100x)
	$(call unit_gate,BenchmarkTelemetryEnabled,events/op,19500)
	$(call bench_run,BenchmarkTCPHotPath,.,20x)
	$(call unit_gate,BenchmarkTCPHotPath,allocs/op,400)
	$(call unit_gate,BenchmarkTCPHotPath,events/op,255000)
	$(call bench_run,BenchmarkTCPHotPathTDTCP,.,20x)
	$(call unit_gate,BenchmarkTCPHotPathTDTCP,allocs/op,1450)
	$(call unit_gate,BenchmarkTCPHotPathTDTCP,events/op,255000)
	$(call bench_run,BenchmarkHOHO,./internal/routing,3x)
	$(call unit_gate,BenchmarkHOHO,allocs/op,30000)
	$(call bench_run,BenchmarkOpera,./internal/routing,3x)
	$(call unit_gate,BenchmarkOpera,allocs/op,16000)
	$(call bench_run,BenchmarkWCMP,./internal/routing,3x)
	$(call unit_gate,BenchmarkWCMP,allocs/op,3500)

# Twenty seconds of coverage-guided fuzzing of the deploy path
# (FuzzDeploy): hostile circuits and paths through DeployTopo,
# DeployRouting and Reprogram on a running net; no call may panic and a
# rejected one must change nothing. Plain `go test` replays the committed
# corpus (testdata/fuzz/FuzzDeploy); a failing input found here is written
# there. CI runs this.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzDeploy$$' -fuzztime 20s .

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

# Go line changes against BASE (default HEAD), per package with non-test
# and test files apart: lines added and removed, and the net change in
# code lines (neither blank nor //-only). It reads `git diff` of tracked
# .go files plus every untracked .go file, outside simbench/. A report, not
# a gate:  make netlines BASE=<rev>
BASE ?= HEAD
netlines:
	@{ git diff $(BASE) -- '*.go' ':(exclude)simbench'; \
	   git ls-files -o --exclude-standard -- '*.go' ':(exclude)simbench' | \
	   while read -r f; do git diff --no-index /dev/null "$$f"; done; } | \
	awk 'function code(l) { sub(/^[ \t]+/, "", l); return l != "" && l !~ /^\/\// } \
	/^diff /   { hdr = 1; next } \
	hdr && /^(---|\+\+\+) [ab]\// { f = substr($$2, 3) } \
	hdr && /^@@/ { hdr = 0; p = f; if (!sub(/\/[^\/]*$$/, "", p)) p = "."; \
		k = p (f ~ /_test\.go$$/ ? " test" : " non-test"); seen[k] = 1; next } \
	hdr        { next } \
	/^\+/      { add[k]++; if (code(substr($$0, 2))) net[k]++ } \
	/^-/       { del[k]++; if (code(substr($$0, 2))) net[k]-- } \
	END { printf "%-28s %-8s %7s %7s %9s\n", "package", "files", "added", "removed", "net code"; \
		sort = "sort"; for (k in seen) { split(k, pk, " "); \
			printf "%-28s %-8s %7d %7d %+9d\n", pk[1], pk[2], add[k], del[k], net[k] | sort; \
			A[pk[2]] += add[k]; D[pk[2]] += del[k]; N[pk[2]] += net[k] } close(sort); \
		split("non-test test", ts, " "); for (i = 1; i <= 2; i++) \
			printf "%-28s %-8s %7d %7d %+9d\n", "all", ts[i], A[ts[i]], D[ts[i]], N[ts[i]] }'
