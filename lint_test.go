package openoptics

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestNoBarePacketConstruction is a lint-style gate for the pooled packet
// lifecycle: every packet must be built through PacketPool.NewPacket (or
// the unpooled core.AllocPacket fallback), never by taking the address of
// a bare composite literal or new(). Bare construction bypasses the pool —
// the packet never recycles, pool identity is zeroed, and Free() becomes a
// silent no-op — so a single stray literal quietly reintroduces per-packet
// heap allocation. Passing a core.Packet{...} *value* as the template
// argument to NewPacket is fine and is what this test leaves alone.
//
// Scope: non-test sources outside internal/core (the pool implementation
// and core's own tests construct records directly by design).
func TestNoBarePacketConstruction(t *testing.T) {
	bare := regexp.MustCompile(`&core\.Packet\{|new\(core\.Packet\)|&Packet\{|new\(Packet\)`)
	var offenders []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" || path == filepath.Join("internal", "core") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if bare.MatchString(line) {
				offenders = append(offenders, path+":"+strconv.Itoa(i+1)+": "+strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) > 0 {
		t.Errorf("bare core.Packet construction outside internal/core — route through PacketPool.NewPacket or core.AllocPacket:\n  %s",
			strings.Join(offenders, "\n  "))
	}
}
