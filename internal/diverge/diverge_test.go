package diverge

import (
	"bytes"
	"strings"
	"testing"

	"openoptics/internal/provenance"
)

// testJournal builds a minimal well-formed journal with the given window
// hashes (by value, chained arbitrarily) and totals.
func testJournal(windowEvents uint64, hashes []string, events uint64, chain string) *Journal {
	j := &Journal{
		Header: Header{
			SchemaVersion: SchemaVersion,
			WindowEvents:  windowEvents,
			Manifest:      &provenance.Manifest{SchemaVersion: provenance.SchemaVersion, ConfigDigest: "cfg"},
		},
		Final: FinalRec{Events: events, LastTNs: 12345, Chain: chain, Windows: len(hashes)},
	}
	for i, h := range hashes {
		j.Windows = append(j.Windows, WindowRec{
			Index: i, EndEvents: uint64(i+1) * windowEvents, EndTNs: int64(i) * 1000,
			Hash: h, Chain: h,
		})
	}
	return j
}

func TestJournalRoundTrip(t *testing.T) {
	j := testJournal(64, []string{Hex(1), Hex(2)}, 130, Hex(99))
	j.Header.Scenario = []byte(`{"arch":"rotornet-vlb","trace":"rpc","nodes":4,"seed":7,"duration_ms":5}`)
	j.Header.PerturbA, j.Header.PerturbB = 5, 6
	j.Windows[1].StateHash = Hex(3)
	j.Final.StateHash = Hex(4)
	j.Violations = append(j.Violations, ViolationRec{TNs: 2000, Events: 100, Probe: "packet-conservation", Detail: "x"})
	j.Final.Violations = 1
	j.Final.PerturbHint = "5:6"

	var buf bytes.Buffer
	if err := Write(&buf, j); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.WindowEvents != 64 || !bytes.Equal(got.Header.Scenario, j.Header.Scenario) || got.Header.PerturbB != 6 {
		t.Fatalf("header mangled: %+v", got.Header)
	}
	if len(got.Windows) != 2 || got.Windows[1].Hash != Hex(2) || got.Windows[1].StateHash != Hex(3) {
		t.Fatalf("windows mangled: %+v", got.Windows)
	}
	if len(got.Violations) != 1 || got.Violations[0].Probe != "packet-conservation" {
		t.Fatalf("violations mangled: %+v", got.Violations)
	}
	if got.Final.Chain != Hex(99) || got.Final.StateHash != Hex(4) || got.Final.PerturbHint != "5:6" {
		t.Fatalf("final mangled: %+v", got.Final)
	}

	// Byte determinism: rewriting the parsed journal reproduces the bytes.
	var buf2 bytes.Buffer
	if err := Write(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("journal bytes not stable across a read/write cycle:\n%s\nvs\n%s", buf.Bytes(), buf2.Bytes())
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	j := testJournal(64, []string{Hex(1)}, 64, Hex(1))
	var buf bytes.Buffer
	if err := Write(&buf, j); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	noFinal := bytes.Join(lines[:len(lines)-1], []byte("\n"))
	if _, err := Read(bytes.NewReader(noFinal)); err == nil {
		t.Fatal("journal without a final record parsed without error")
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty journal parsed without error")
	}
}

// TestReadMapsV1Replay checks a schema-v1 replay object is mapped onto the
// Scenario keys, its perturbation onto the header, and that a v1 spec the
// Scenario cannot express is rejected.
func TestReadMapsV1Replay(t *testing.T) {
	const final = `{"kind":"final","events":1,"chain":"01"}` + "\n"
	v1 := `{"kind":"header","schema_version":1,"window_events":64,"replay":{"arch":"daware","workload":"kv",` +
		`"nodes":4,"hosts_per_node":1,"slice_us":50,"collect_us":500,"reprogram_us":1000,"drain_us":5,` +
		`"window_events":64,"perturb_a":3,"perturb_b":9}}` + "\n"
	j, err := Read(strings.NewReader(v1 + final))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"arch":"daware","collect_interval_us":500,"event_digest":true,"nodes":4,` +
		`"reconfig_drain_us":5,"reconfig_period_us":1000,"slice_duration_ns":50000,"trace":"kv"}`
	if string(j.Header.Scenario) != want || j.Header.PerturbA != 3 || j.Header.PerturbB != 9 {
		t.Fatalf("v1 header read as scenario %s, perturb %d:%d", j.Header.Scenario, j.Header.PerturbA, j.Header.PerturbB)
	}
	multi := strings.Replace(v1, `"hosts_per_node":1`, `"hosts_per_node":2`, 1)
	if _, err := Read(strings.NewReader(multi + final)); err == nil {
		t.Fatal("a v1 spec with two hosts per node read without error")
	}
}

func TestCompareIdentical(t *testing.T) {
	a := testJournal(64, []string{Hex(1), Hex(2)}, 130, Hex(9))
	b := testJournal(64, []string{Hex(1), Hex(2)}, 130, Hex(9))
	r, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Identical || !r.ConfigMatch || r.Window != nil {
		t.Fatalf("identical journals compare as %+v", r)
	}
	var out bytes.Buffer
	r.Render(&out)
	if !strings.Contains(out.String(), "IDENTICAL") {
		t.Fatalf("render lacks verdict:\n%s", out.String())
	}
}

func TestCompareWindowMismatch(t *testing.T) {
	a := testJournal(64, []string{Hex(1), Hex(2), Hex(3)}, 200, Hex(9))
	b := testJournal(64, []string{Hex(1), Hex(5), Hex(6)}, 200, Hex(8))
	r, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Identical {
		t.Fatal("differing journals compare identical")
	}
	if r.Window == nil || r.Window.Index != 1 {
		t.Fatalf("first divergent window = %+v, want index 1", r.Window)
	}
	if r.Window.StartEvents != 64 || r.Window.EndEvents != 128 {
		t.Fatalf("window bounds [%d, %d), want [64, 128)", r.Window.StartEvents, r.Window.EndEvents)
	}
	// Render must be byte-deterministic.
	var o1, o2 bytes.Buffer
	r.Render(&o1)
	r.Render(&o2)
	if !bytes.Equal(o1.Bytes(), o2.Bytes()) {
		t.Fatal("report render is not byte-deterministic")
	}
	if !strings.Contains(o1.String(), "DIVERGED") || !strings.Contains(o1.String(), "first divergent window: #1") {
		t.Fatalf("render missing verdict/window:\n%s", o1.String())
	}
}

func TestCompareTailDivergence(t *testing.T) {
	// All closed windows match; one run simply processed more events.
	a := testJournal(64, []string{Hex(1)}, 70, Hex(9))
	b := testJournal(64, []string{Hex(1)}, 90, Hex(8))
	r, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Identical || r.Window == nil {
		t.Fatalf("tail divergence not localized: %+v", r)
	}
	if r.Window.Index != 1 || r.Window.StartEvents != 64 || r.Window.EndEvents != 71 {
		t.Fatalf("tail window = %+v, want index 1 events [64, 71)", r.Window)
	}
}

// TestCompareWindowStateHashes checks the divergent window carries each
// side's state hash, in the report and its render, and that a v2 journal's
// checkpoint records are skipped on read.
func TestCompareWindowStateHashes(t *testing.T) {
	a := testJournal(64, []string{Hex(1), Hex(2)}, 130, Hex(9))
	b := testJournal(64, []string{Hex(1), Hex(5)}, 130, Hex(8))
	for i := range a.Windows {
		a.Windows[i].StateHash, b.Windows[i].StateHash = Hex(uint64(11+i)), Hex(uint64(11+2*i))
	}
	r, err := Compare(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := r.Window; d == nil || d.Index != 1 || d.StateHashA != Hex(12) || d.StateHashB != Hex(13) {
		t.Fatalf("window diff = %+v, want index 1 with state hashes %s and %s", r.Window, Hex(12), Hex(13))
	}
	var out bytes.Buffer
	r.Render(&out)
	if want := "state A=" + Hex(12) + " B=" + Hex(13); !strings.Contains(out.String(), want) {
		t.Fatalf("render lacks %q:\n%s", want, out.String())
	}

	v2 := `{"kind":"header","schema_version":2,"window_events":64,"checkpoint_every_ns":1000000}
{"kind":"window","index":0,"end_events":64,"end_t_ns":0,"hash":"` + Hex(1) + `","chain":"` + Hex(1) + `"}
{"kind":"checkpoint","t_ns":1000000,"events":80,"state_hash":"` + Hex(3) + `","pool_gets":10,"pool_puts":10,"pool_outstanding":0}
{"kind":"final","events":80,"last_t_ns":1000000,"chain":"` + Hex(9) + `","windows":1,"checkpoints":1,"violations":0}
`
	j, err := Read(strings.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Windows) != 1 || j.Windows[0].StateHash != "" || j.Final.Events != 80 {
		t.Fatalf("v2 journal read as %+v", j)
	}
}

func TestCompareRejectsWindowMismatch(t *testing.T) {
	a := testJournal(64, nil, 10, Hex(1))
	b := testJournal(128, nil, 10, Hex(1))
	if _, err := Compare(a, b); err == nil {
		t.Fatal("journals with different window granularity compared without error")
	}
}
