package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkEngineSchedule measures the raw schedule-execute cycle: one event
// scheduled and drained per iteration with a pre-allocated handler, so the
// number isolates the scheduler's own cost (queue insert, pop, dispatch).
// Steady-state allocs/op must be 0 — the event records live in the engine's
// slab and the queue's backing arrays are reused across iterations.
func BenchmarkEngineSchedule(b *testing.B) {
	e := New()
	fn := func() {}
	// Warm the internal storage so growth allocations land before the timer.
	for i := 0; i < 1024; i++ {
		e.At(int64(i), fn)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+10, fn)
		e.Run()
	}
}

// BenchmarkEngineScheduleDepth measures scheduling against a standing
// population of pending events (the realistic regime: thousands of packets
// in flight), exercising the calendar buckets rather than the empty-queue
// fast path.
func BenchmarkEngineScheduleDepth(b *testing.B) {
	e := New()
	fn := func() {}
	// Standing population spread over a 1 ms window.
	for i := 0; i < 4096; i++ {
		e.At(int64(1_000_000_000)+int64(i)*250, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(int64(i%1000)*1000, fn)
		e.RunUntil(int64(i%1000)*1000 + 1)
	}
}

// BenchmarkEngineEvery measures the periodic-tick machinery used by slice
// rotations and pacing loops.
func BenchmarkEngineEvery(b *testing.B) {
	e := New()
	n := 0
	e.Every(0, 100, func() bool { n++; return n < b.N })
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// cascader is BenchmarkEngineCascade's event: every dispatch schedules one
// successor at the next precomputed delay, so the population is constant.
type cascader struct {
	e      *Engine
	delays []int64
	i      int
	left   int // dispatches until Halt
}

func (c *cascader) RunEvent(any, int64) {
	c.e.AfterEvent(c.delays[c.i&(len(c.delays)-1)], ClassOther, c, nil, 0)
	c.i++
	if c.left--; c.left == 0 {
		c.e.Halt()
	}
}

// BenchmarkEngineCascade measures the scheduler in the shape the benchmark
// workloads give it: a self-sustaining cascade whose delays follow the
// measured mix (cascadeDelay). Its 3,300 events settle at ~120 near-term
// events and ~3.2k long timers pending (the 16-node RotorNet RPC run
// peaks at 3,536 pending). One op is one dispatch plus its successor's
// push.
func BenchmarkEngineCascade(b *testing.B) {
	e := New()
	rng := rand.New(rand.NewSource(1))
	c := &cascader{e: e, delays: make([]int64, 1<<16)}
	for i := range c.delays {
		c.delays[i] = cascadeDelay(rng)
	}
	for i := 0; i < 100; i++ {
		e.AtEvent(int64(rng.Intn(700)), ClassOther, c, nil, 0)
	}
	for i := 0; i < 3200; i++ {
		e.AtEvent(int64(rng.Intn(1_100_000)), ClassOther, c, nil, 0)
	}
	// Warm up until the slab and buckets have grown and the near/timer
	// split has settled.
	c.left = 500_000
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	c.left = b.N
	e.Run()
}
