package sim

// This file is the engine's one instrumentation seam. Both instruments
// that watch the event stream — the per-class wall-clock profiler
// (profile.go) and the determinism digest (digest.go) — are observers: the
// engine calls them around every handler, and pays one nil check per
// dispatch when nothing is attached. Observers never schedule events or
// touch the queue, so attaching either or both leaves the dispatch order —
// and with it the digest chain — exactly as it is with none.

// observer receives the engine's dispatch stream.
type observer interface {
	// beginDispatch runs with the clock at the event's time, before its
	// handler: seq is the number the event was queued under, arg and v
	// AtEvent's operands (nil and 0 for closures). The handler may recycle
	// arg, so this is the last point where it is live.
	beginDispatch(e *Engine, seq uint64, class Class, arg any, v int64)
	// endDispatch runs after the handler returns.
	endDispatch(e *Engine, class Class)
}

// observerSet attaches several observers at once. Begin hooks run in
// order and end hooks in reverse, so the last member brackets the handler
// alone — the profiler sits there, timing only the handler.
type observerSet []observer

func (s observerSet) beginDispatch(e *Engine, seq uint64, class Class, arg any, v int64) {
	for _, o := range s {
		o.beginDispatch(e, seq, class, arg, v)
	}
}

func (s observerSet) endDispatch(e *Engine, class Class) {
	for i := len(s) - 1; i >= 0; i-- {
		s[i].endDispatch(e, class)
	}
}

// observed returns the attached observer of type T, or T's zero value.
func observed[T observer](e *Engine) T {
	if o, ok := e.obs.(T); ok {
		return o
	}
	if s, ok := e.obs.(observerSet); ok {
		for _, o := range s {
			if t, ok := o.(T); ok {
				return t
			}
		}
	}
	var zero T
	return zero
}

// setObservers installs the given instruments (nil = not attached) on the
// seam in a fixed order: digest, then profiler.
func (e *Engine) setObservers(d *EventDigest, p *profiler) {
	switch {
	case d != nil && p != nil:
		e.obs = observerSet{d, p}
	case d != nil:
		e.obs = d
	case p != nil:
		e.obs = p
	default:
		e.obs = nil
	}
}
