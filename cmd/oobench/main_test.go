package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestVersion runs oobench's flag parsing in-process on a -version command
// line (run parses the process-wide flag set, so it can run once per test
// binary).
func TestVersion(t *testing.T) {
	stdout, err := os.Create(filepath.Join(t.TempDir(), "stdout.txt"))
	if err != nil {
		t.Fatal(err)
	}
	savedOut, savedArgs := os.Stdout, os.Args
	os.Stdout, os.Args = stdout, []string{"oobench", "-version"}
	rc := run()
	os.Stdout, os.Args = savedOut, savedArgs
	stdout.Close()
	out, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	if rc != 0 || !strings.HasPrefix(string(out), "oobench ") {
		t.Fatalf("oobench -version exited %d printing %q", rc, out)
	}
}
