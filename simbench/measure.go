package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// plan is one workload at one seed: flow arrivals over arrivalsNs of
// virtual time, the whole run windowNs long.
type plan struct {
	w          *workload
	seed       uint64
	arrivalsNs int64
	windowNs   int64
}

// untracedRun is one end-to-end run: set-up, then the fixed window.
type untracedRun struct {
	setupNs    int64
	runNs      int64
	allocBytes uint64
	allocs     uint64
	gcCycles   uint32
	gcPauseNs  uint64
	fp         fingerprint
}

// untraced builds the workload and runs it through the window with every
// instrument detached. A panic is returned as an error.
func (p plan) untraced() (r untracedRun, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	// Collect the previous run's garbage so it is not charged to this one.
	runtime.GC()
	t0 := time.Now()
	inst, err := p.setup()
	r.setupNs = time.Since(t0).Nanoseconds()
	if err != nil {
		return r, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	err = inst.in.Run(time.Duration(p.windowNs))
	r.runNs = time.Since(t1).Nanoseconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return r, err
	}
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.allocs = m1.Mallocs - m0.Mallocs
	r.gcCycles = m1.NumGC - m0.NumGC
	r.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	r.fp = inst.fingerprint()
	return r, nil
}

// setupOnly times one more set-up and discards the armed network.
func (p plan) setupOnly() (ns int64, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	runtime.GC()
	t0 := time.Now()
	_, err = p.setup()
	return time.Since(t0).Nanoseconds(), err
}

// series is the checked runs of one invocation.
type series struct {
	runs    []untracedRun
	setupNs []int64 // from every run plus the set-up-only samples
	tally   tally
	first   *fingerprint
}

// check verifies a finished run and, when it passes, its equality with the
// first run of the seed.
func (s *series) check(p plan, what string, fp fingerprint, err error, ref map[string]outcome) bool {
	var bad []string
	if err != nil {
		bad = []string{err.Error()}
	} else {
		bad = verify(p.w, p.seed, fp, ref)
		if s.first == nil {
			s.first = &fp
		} else {
			bad = append(bad, sameRun(fp, *s.first)...)
		}
	}
	return s.tally.add(what, bad)
}

// Set-up is sampled at least minSetups times and for at least setupWall
// of host time: one vlb-rpc set-up spreads by about ±20%, and one
// clos-hadoop set-up takes under a millisecond.
const (
	minSetups = 9
	setupWall = time.Second
)

// measureUntraced runs the workload end to end until the time budget is
// spent — at least once — then takes more set-up samples. A new run starts
// only if it is expected to finish, with the set-up samples still to come,
// inside the budget.
func measureUntraced(p plan, budget time.Duration, ref map[string]outcome) series {
	var s series
	start := time.Now()
	for {
		if n := len(s.runs); n > 0 {
			last := s.runs[n-1]
			reserve := max(time.Duration(minSetups-n-1)*time.Duration(last.setupNs), setupWall)
			if time.Since(start)+time.Duration(last.setupNs+last.runNs)+reserve > budget {
				break
			}
		} else if s.tally.Attempted > 0 && time.Since(start) > budget {
			break // every run so far failed
		}
		r, err := p.untraced()
		if s.check(p, fmt.Sprintf("run %d", s.tally.Attempted+1), r.fp, err, ref) {
			s.runs = append(s.runs, r)
			s.setupNs = append(s.setupNs, r.setupNs)
		}
	}
	t0 := time.Now()
	for len(s.runs) > 0 && (len(s.setupNs) < minSetups || time.Since(t0) < setupWall) {
		ns, err := p.setupOnly()
		var bad []string
		if err != nil {
			bad = []string{err.Error()}
		}
		if !s.tally.add(fmt.Sprintf("setup %d", len(s.setupNs)+1), bad) {
			break
		}
		s.setupNs = append(s.setupNs, ns)
	}
	return s
}

func median[T int64 | float64](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = float64(x)
	}
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}
