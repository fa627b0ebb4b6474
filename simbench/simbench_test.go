package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// shortPlan is a workload on a 3 ms virtual window, long enough for the
// demand-aware loop to hot-swap and cheap enough for a unit test.
func shortPlan(t *testing.T, name string, seed uint64) plan {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return plan{w: w, seed: seed, arrivalsNs: 2_000_000, windowNs: 3_000_000}
}

func mustRef(t *testing.T) map[string]outcome {
	t.Helper()
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestTamperedOutputCountsAsFailed proves each check fires: a run whose
// output or reference was tampered with is counted as a failed run.
func TestTamperedOutputCountsAsFailed(t *testing.T) {
	ref := mustRef(t)
	runs := map[string]fingerprint{}
	for _, name := range []string{"vlb-rpc", "clos-hadoop", "daware-hotswap"} {
		p := shortPlan(t, name, 3)
		r, err := p.untraced()
		if err != nil {
			t.Fatal(err)
		}
		if bad := verify(p.w, p.seed, r.fp, ref); bad != nil {
			t.Fatalf("%s: untampered run failed: %v", name, bad)
		}
		runs[name] = r.fp
	}

	cases := []struct {
		name     string
		workload string
		seed     uint64
		tamper   func(fp *fingerprint, ref map[string]outcome)
		want     string
	}{
		{"pool conservation", "vlb-rpc", 3,
			func(fp *fingerprint, _ map[string]outcome) { fp.Counts.PoolPuts++ }, "packet pool"},
		{"no deliveries", "vlb-rpc", 3,
			func(fp *fingerprint, _ map[string]outcome) { fp.Counts.Delivered = 0 }, "no deliveries"},
		{"no completed flows", "clos-hadoop", 3,
			func(fp *fingerprint, _ map[string]outcome) { fp.Outcome.FlowsCompleted = 0 }, "no deliveries"},
		{"optical forwarding on clos", "clos-hadoop", 3,
			func(fp *fingerprint, _ map[string]outcome) { fp.Counts.OpticalForwarded = 1 }, "forwarded optically"},
		{"no reprograms on daware", "daware-hotswap", 3,
			func(fp *fingerprint, _ map[string]outcome) { fp.Outcome.Reprograms = 0 }, "no reprograms"},
		{"output outside the reference band", "vlb-rpc", defaultSeed,
			func(fp *fingerprint, _ map[string]outcome) { fp.Outcome.FCTP50Ns *= 1.5 }, "fct_p50_ns"},
		{"tampered reference", "clos-hadoop", defaultSeed,
			func(_ *fingerprint, ref map[string]outcome) {
				r := ref["clos-hadoop"]
				r.FlowsStarted++
				ref["clos-hadoop"] = r
			}, "flows_started"},
		{"missing reference", "daware-hotswap", defaultSeed,
			func(_ *fingerprint, ref map[string]outcome) { delete(ref, "daware-hotswap") }, "no reference outcome"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := shortPlan(t, tc.workload, tc.seed)
			ref := mustRef(t)
			fp := runs[tc.workload]
			if tc.seed == defaultSeed {
				// The recorded outcome, with counters that obey
				// conservation, passes before it is tampered with.
				fp.Outcome = ref[tc.workload]
				fp.Counts.PoolPuts = fp.Outcome.Packets - uint64(fp.Counts.PoolOutstanding)
				if bad := verify(p.w, p.seed, fp, ref); bad != nil {
					t.Fatalf("the reference itself fails: %v", bad)
				}
			}
			tc.tamper(&fp, ref)
			var s series
			if s.check(p, "tampered", fp, nil, ref) {
				t.Fatal("tampered run passed")
			}
			if s.tally.Attempted != 1 || s.tally.Failed != 1 {
				t.Fatalf("tally %+v, want 1 attempted, 1 failed", s.tally)
			}
			if !strings.Contains(strings.Join(s.tally.Reasons, "; "), tc.want) {
				t.Fatalf("reasons %q do not name %q", s.tally.Reasons, tc.want)
			}
		})
	}

	t.Run("outcome differs between runs of one seed", func(t *testing.T) {
		p := shortPlan(t, "vlb-rpc", 3)
		var s series
		if !s.check(p, "first", runs["vlb-rpc"], nil, ref) {
			t.Fatalf("first run failed: %v", s.tally.Reasons)
		}
		other := runs["vlb-rpc"]
		other.Outcome.FCTP99Ns++
		if s.check(p, "second", other, nil, ref) {
			t.Fatal("a differing rerun passed")
		}
		if s.tally.Attempted != 2 || s.tally.Failed != 1 {
			t.Fatalf("tally %+v, want 2 attempted, 1 failed", s.tally)
		}
	})
}

// TestTracedMatchesUntraced proves tracing changes no simulated outcome or
// count, on every workload.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			p := shortPlan(t, w.Name, 5)
			u, err := p.untraced()
			if err != nil {
				t.Fatal(err)
			}
			sp := newSpanLog()
			tr, err := p.traced(sp)
			if err != nil {
				t.Fatal(err)
			}
			if tr.fp != u.fp {
				t.Fatalf("traced run differs from untraced:\n%+v\n%+v", tr.fp, u.fp)
			}
			if w.Demand != nil && (len(tr.ticks) == 0 || tr.fp.Outcome.Reprograms == 0) {
				t.Fatalf("%d ticks, %d reprograms: the control loop did not run", len(tr.ticks), tr.fp.Outcome.Reprograms)
			}
			for _, s := range sp.spans {
				if s.End < s.Start {
					t.Fatalf("span %s unfinished", s.Name)
				}
			}
		})
	}
}

// benchmarkNames reads the metric names BENCHMARK.json promises.
func benchmarkNames(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(doc[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func namesOf(m metricSet) []string {
	var names []string
	for k, v := range m {
		names = append(names, k+" "+v.Unit)
	}
	sort.Strings(names)
	return names
}

// TestMetricsMatchBenchmarkJSON runs the command as the benchmark driver
// does, on the cheapest workload, and checks its last line: the result
// keys, a passing run, and exactly the metrics BENCHMARK.json lists.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full virtual window")
	}
	for _, tc := range []struct{ trace, key string }{{"0", "end_to_end"}, {"1", "per_layer"}} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "vlb-rpc", "--seed", "7", "--seconds", "1", "--trace", tc.trace, "-out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", tc.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil {
			t.Fatalf("trace %s: result keys %v", tc.trace, res)
		}
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Fatalf("trace %s: %+v; stderr: %s", tc.trace, r, stderr.String())
		}
		got, want := namesOf(r.Metrics), benchmarkNames(t, tc.key)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("trace %s metrics:\n got %v\nwant %v", tc.trace, got, want)
		}
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "vlb-rpc", "--trace", "2"},
		{"--workload", "vlb-rpc", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Fatalf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestMeasureUntracedRunsOnceOnASpentBudget pins the budget rule: the
// first run always happens, no second one starts once the budget is
// spent, and set-up is still sampled minSetups times.
func TestMeasureUntracedRunsOnceOnASpentBudget(t *testing.T) {
	p := shortPlan(t, "vlb-rpc", 2)
	s := measureUntraced(p, time.Nanosecond, mustRef(t))
	if s.tally.Failed != 0 || len(s.runs) != 1 || len(s.setupNs) < minSetups {
		t.Fatalf("%d runs, %d set-ups, tally %+v", len(s.runs), len(s.setupNs), s.tally)
	}
}
