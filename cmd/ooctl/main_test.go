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
