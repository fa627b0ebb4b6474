package sim

import (
	"testing"
	"time"
)

func TestClassCountsAndProfiling(t *testing.T) {
	e := New()
	e.EnableProfiling(true)
	ran := 0
	for i := 0; i < 5; i++ {
		e.AtClass(int64(i)*10, ClassLinkDeliver, func() { ran++ })
	}
	e.AtClass(100, ClassSwitchIngress, func() { time.Sleep(time.Millisecond) })
	e.At(200, func() {}) // ClassOther
	e.Run()
	if ran != 5 {
		t.Fatalf("ran = %d", ran)
	}
	stats := e.ProfileStats()
	byClass := map[Class]ClassStats{}
	for _, s := range stats {
		byClass[s.Class] = s
	}
	if byClass[ClassLinkDeliver].Count != 5 {
		t.Fatalf("link.deliver count = %d", byClass[ClassLinkDeliver].Count)
	}
	if byClass[ClassOther].Count != 1 {
		t.Fatalf("other count = %d", byClass[ClassOther].Count)
	}
	if byClass[ClassSwitchIngress].WallNs < int64(500*time.Microsecond) {
		t.Fatalf("switch.ingress wall = %dns, want >= 0.5ms", byClass[ClassSwitchIngress].WallNs)
	}
	if ClassLinkDeliver.String() != "link.deliver" || ClassOther.String() != "other" {
		t.Fatal("class names wrong")
	}
}

func TestClassCountsWithoutProfiling(t *testing.T) {
	e := New()
	e.AtClass(1, ClassHostTx, func() {})
	e.Run()
	stats := e.ProfileStats()
	if len(stats) != 1 || stats[0].Class != ClassHostTx || stats[0].Count != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].WallNs != 0 {
		t.Fatalf("wall time collected while profiling off: %d", stats[0].WallNs)
	}
}
