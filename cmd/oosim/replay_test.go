package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"openoptics/internal/arch"
	"openoptics/internal/diverge"
	"openoptics/internal/diverge/replay"
	"openoptics/internal/runner"
)

// loopArchs are the architectures with a TA control loop: their replay
// cases run it every 500 µs (-reprogram-us), so every loop iteration is a
// Net.Reprogram inside the journal's 2 ms.
var loopArchs = []string{"c-through", "jupiter", "mordia", "semi-oblivious"}

// replayCases are the oosim runs whose journals must replay: every
// registry architecture at its defaults (the loop period aside), plus the
// daware, hot-pair and load-shape flags a default run leaves unexercised.
func replayCases() map[string][]string {
	cases := map[string][]string{}
	for _, name := range arch.Names() {
		cases[name] = []string{"-arch", name}
	}
	for _, name := range loopArchs {
		cases[name] = append(cases[name], "-reprogram-us", "500")
	}
	cases["daware-tuned"] = []string{"-arch", "daware", "-policy", "reqgrant", "-predictor", "ewma",
		"-collect-us", "500", "-reprogram-us", "1000", "-drain-us", "5", "-hot-frac", "0.5", "-hot-pairs", "1"}
	cases["hot-pairs"] = []string{"-arch", "rotornet-vlb", "-hot-frac", "0.5", "-hot-pairs", "2"}
	cases["load-shape"] = []string{"-arch", "rotornet-vlb", "-load-shape", "bursty",
		"-shape-period-ms", "1", "-shape-amplitude", "0.5"}
	return cases
}

// TestJournalsReplay records each case with oosim -digest-out in-process
// and requires replay.Execute, given only the journal's header, to
// reproduce the run's final digest chain: oosim and the replayer must wire
// a run identically, or `ooctl diverge` cannot bisect oosim's journals.
// The TA loop cases also export oo_reconfig_total, which must count their
// reconfigurations.
func TestJournalsReplay(t *testing.T) {
	dir := t.TempDir()
	for name, flags := range replayCases() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".digest.jsonl")
			metrics := filepath.Join(dir, name+".prom")
			args := append([]string{"-nodes", "4", "-workload", "rpc", "-duration-ms", "2", "-seed", "7",
				"-digest-window", "1024", "-digest-out", path, "-metrics-out", metrics}, flags...)
			if rc := run(args); rc != 0 {
				t.Fatalf("oosim %v exited %d", args, rc)
			}
			if slices.Contains(loopArchs, name) {
				if n := promValue(t, metrics, "oo_reconfig_total"); n < 1 {
					t.Fatalf("oo_reconfig_total = %g, want >= 1: the control loop never reprogrammed", n)
				}
			}
			j, err := diverge.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			r, err := replay.Execute(&j.Header, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if j.Final.Events == 0 || r.Journal.Final.Chain != j.Final.Chain || r.Journal.Final.Events != j.Final.Events {
				t.Fatalf("replay gave %d events chain %s; oosim recorded %d events chain %s",
					r.Journal.Final.Events, r.Journal.Final.Chain, j.Final.Events, j.Final.Chain)
			}
		})
	}
}

// promValue reads one unlabelled sample from a Prometheus text export.
func promValue(t *testing.T, path, name string) float64 {
	t.Helper()
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("%s has no %s sample", path, name)
	return 0
}

// v1Flags and v1Journal are one run recorded by an oosim that wrote
// schema-v1 journals (header and final line; the windows are not needed
// to replay). Its replay object spells five keys differently from the
// Scenario and duplicates the header's auditor geometry. Its chain is not
// today's: that oosim dispatched the auditor's 2 checkpoints as events
// (385,673 events, so 385,671 without them), and today's fuses each hop's
// link delivery into the receiver's pipeline stage (todayEvents).
var v1Flags = []string{"-arch", "daware", "-nodes", "4", "-uplink", "1", "-slice-us", "50",
	"-workload", "rpc", "-load", "0.3", "-duration-ms", "2", "-seed", "7",
	"-policy", "reqgrant", "-predictor", "ewma", "-collect-us", "500", "-reprogram-us", "1000", "-drain-us", "5",
	"-hot-frac", "0.5", "-hot-pairs", "1", "-load-shape", "diurnal", "-shape-period-ms", "1", "-shape-amplitude", "0.5",
	"-digest-window", "1024"}

const v1Journal = `{"kind":"header","schema_version":1,"manifest":{"schema_version":1,"config_digest":"sha256:b40402101eacfc0d2294462c7818db9cf2db9369b3cda3d67b8e7d131d05cacc","seeds":[7]},"window_events":1024,"checkpoint_every_ns":1000000,"replay":{"arch":"daware","workload":"rpc","nodes":4,"uplink":1,"hosts_per_node":1,"slice_us":50,"load":0.3,"seed":7,"duration_ms":2,"policy":"reqgrant","predictor":"ewma","collect_us":500,"reprogram_us":1000,"drain_us":5,"hot_frac":0.5,"hot_pairs":1,"load_shape":"diurnal","shape_period_ms":1,"shape_amplitude":0.5,"window_events":1024,"checkpoint_every_ns":1000000}}
{"kind":"final","events":385673,"last_t_ns":2500000,"chain":"a693b68bbf4a4277","windows":376,"checkpoints":2,"violations":0,"perturb_hint":"34:38"}
`

func decodeScenario(t *testing.T, h *diverge.Header) runner.Scenario {
	t.Helper()
	var sc runner.Scenario
	if err := json.Unmarshal(h.Scenario, &sc); err != nil {
		t.Fatalf("header scenario %s: %v", h.Scenario, err)
	}
	return sc
}

// todayEvents is the number of events today's oosim dispatches for v1Flags.
const todayEvents = 268_717

// TestV1JournalReadsAsScenario checks a schema-v1 header decodes to the
// Scenario today's oosim records for the same flags, that today's run
// dispatches todayEvents, and that the v1 header replays to today's chain.
func TestV1JournalReadsAsScenario(t *testing.T) {
	v1, err := diverge.Read(strings.NewReader(v1Journal))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "today.digest.jsonl")
	if rc := run(append([]string{"-digest-out", path}, v1Flags...)); rc != 0 {
		t.Fatalf("oosim exited %d", rc)
	}
	today, err := diverge.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := decodeScenario(t, &v1.Header), decodeScenario(t, &today.Header); got != want {
		t.Fatalf("v1 header decodes to\n%+v\nthe same flags record\n%+v", got, want)
	}
	if today.Final.Events != todayEvents {
		t.Fatalf("today's oosim dispatches %d events, want %d", today.Final.Events, todayEvents)
	}
	r, err := replay.Execute(&v1.Header, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Journal.Final.Chain != today.Final.Chain || r.Journal.Final.Events != today.Final.Events {
		t.Fatalf("v1 journal replays to %d events chain %s; today's oosim gives %d %s",
			r.Journal.Final.Events, r.Journal.Final.Chain, today.Final.Events, today.Final.Chain)
	}
}

// TestConfigDigestCoversScenario checks every flag of the scenario moves
// oosim's config digest — a demand-aware and a demand-oblivious run must
// not report "config digests: match" — while the seed, which the manifest
// records on its own, does not.
func TestConfigDigestCoversScenario(t *testing.T) {
	dir := t.TempDir()
	digest := func(flags ...string) (*diverge.Journal, string) {
		t.Helper()
		path := filepath.Join(dir, "run.digest.jsonl")
		args := append([]string{"-arch", "daware", "-nodes", "4", "-workload", "rpc", "-duration-ms", "1",
			"-seed", "7", "-digest-out", path}, flags...)
		if rc := run(args); rc != 0 {
			t.Fatalf("oosim %v exited %d", flags, rc)
		}
		j, err := diverge.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return j, j.Header.Manifest.ConfigDigest
	}
	aware, base := digest("-policy", "aware")
	if _, d := digest("-seed", "8"); d != base {
		t.Fatalf("the seed moved the config digest: %s vs %s", d, base)
	}
	oblivious, _ := digest("-policy", "oblivious")
	rep, err := diverge.Compare(aware, oblivious)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConfigMatch {
		t.Fatal("diverge reports matching config digests for an aware and an oblivious run")
	}
	seen := map[string]string{base: "defaults"}
	for _, flags := range [][]string{
		{"-policy", "oblivious"}, {"-predictor", "ewma"}, {"-collect-us", "500"},
		{"-reprogram-us", "4000"}, {"-drain-us", "5"}, {"-hot-frac", "0.5"},
		{"-hot-frac", "0.5", "-hot-pairs", "2"}, {"-load-shape", "bursty"},
		{"-load-shape", "bursty", "-shape-period-ms", "5"},
		{"-load-shape", "bursty", "-shape-amplitude", "0.5"},
	} {
		_, d := digest(flags...)
		if prev, ok := seen[d]; ok {
			t.Errorf("%v shares config digest %s with %s", flags, d, prev)
		}
		seen[d] = strings.Join(flags, " ")
	}
}
