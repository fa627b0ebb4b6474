package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		var b bytes.Buffer
		io.Copy(&b, r)
		done <- b.String()
	}()
	fn()
	os.Stdout = old
	w.Close()
	out := <-done
	r.Close()
	return out
}

func TestVersion(t *testing.T) {
	var rc int
	out := captureStdout(t, func() { rc = subcommands["-version"](nil) })
	if rc != 0 || !strings.HasPrefix(out, "ooctl ") {
		t.Fatalf("ooctl -version exited %d printing %q", rc, out)
	}
}

// TestStaticSchemesNeedMesh: ECMP, WCMP and KSP route over static
// circuits only, so on a time-slotted round robin they are refused with an
// error naming -topo mesh instead of compiling no path; on the mesh, and
// for the time-slotted schemes on a round robin, nothing is refused.
func TestStaticSchemesNeedMesh(t *testing.T) {
	for _, c := range []struct {
		tp        string
		n, uplink int
	}{{"roundrobin", 12, 3}, {"roundrobin2d", 16, 1}, {"mesh", 12, 3}} {
		tp := c.tp
		circuits, _, err := buildTopo(tp, c.n, c.uplink)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []string{"ecmp", "wcmp", "ksp", "direct", "vlb", "opera", "ucmp", "hoho"} {
			err := checkStatic(r, tp, circuits)
			refuse := tp != "mesh" && (r == "ecmp" || r == "wcmp" || r == "ksp")
			if refuse != (err != nil) {
				t.Fatalf("-topo %s -routing %s: error %v, want refused=%v", tp, r, err, refuse)
			}
			if refuse && !strings.Contains(err.Error(), "-topo mesh") {
				t.Fatalf("-topo %s -routing %s: error %q does not point to -topo mesh", tp, r, err)
			}
		}
	}
}
