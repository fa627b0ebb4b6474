package runner

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Task is one unit of pool work. Simulation jobs are deterministic per
// seed, so a failed task would fail again: the pool runs each task once.
type Task struct {
	ID  string
	Run func() (any, error)
}

// TaskResult is the outcome of one task.
type TaskResult struct {
	ID       string
	Index    int // position in the submitted slice
	Value    any
	Err      error // nil on success
	Attempts int   // 1 once dispatched; 0 marks a task the stop cut off
	Elapsed  time.Duration
	Panicked bool
}

// Pool executes tasks with bounded parallelism. Each task runs under panic
// recovery — a crashing task is recorded as failed, never fatal to the
// pool.
type Pool struct {
	// Workers bounds concurrency (<= 0: runtime.NumCPU()).
	Workers int
	// OnDone, when set, observes each terminal result in completion
	// order. Calls are serialized; ledger writers hang here.
	OnDone func(TaskResult)
	// Stop, when closed, makes Run stop dispatching new tasks; in-flight
	// tasks finish normally. Undispatched tasks come back with
	// Attempts == 0, which is the aborted marker.
	Stop <-chan struct{}
}

// Run executes all tasks and returns their terminal results indexed by
// submission order (deterministic regardless of worker count).
func (p *Pool) Run(tasks []Task) []TaskResult {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	results := make([]TaskResult, len(tasks))
	if len(tasks) == 0 {
		return results
	}
	idx := make(chan int)
	var done sync.Mutex // serializes OnDone
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				r := runOne(i, tasks[i])
				results[i] = r
				if p.OnDone != nil {
					done.Lock()
					p.OnDone(r)
					done.Unlock()
				}
			}
		}()
	}
feed:
	for i := range tasks {
		select {
		case idx <- i:
		case <-p.Stop: // nil Stop never fires; the send side stays live
			break feed
		}
	}
	close(idx)
	wg.Wait()
	// Tasks the stop cut off were never dispatched; give their results
	// identity so callers can report what was aborted.
	for i := range results {
		if results[i].Attempts == 0 {
			results[i] = TaskResult{ID: tasks[i].ID, Index: i}
		}
	}
	return results
}

// runOne executes a task with panic isolation: a panicking task becomes
// an error result carrying the panic value.
func runOne(i int, t Task) (res TaskResult) {
	start := time.Now()
	res = TaskResult{ID: t.ID, Index: i, Attempts: 1}
	defer func() {
		if r := recover(); r != nil {
			res.Panicked = true
			res.Err = fmt.Errorf("panic: %v", r)
		}
		res.Elapsed = time.Since(start)
	}()
	res.Value, res.Err = t.Run()
	return res
}
