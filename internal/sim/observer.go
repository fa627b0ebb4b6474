package sim

// This file is the engine's one instrumentation seam. Every instrument
// that watches the event stream — the per-class wall-clock profiler
// (profile.go), the event-causality ledger (ledger.go) and the determinism
// digest (digest.go) — is an observer: the engine calls it once per
// scheduled event and around every handler, and pays one nil check per
// schedule and one per dispatch when nothing is attached. Observers never
// schedule events or touch the queue, so attaching any combination of
// them leaves the dispatch order — and with it the digest chain — exactly
// as it is with none.

// observer receives the engine's scheduling and dispatch stream.
type observer interface {
	// scheduled runs once per queued event, after the engine's sequence
	// counter advanced: t is the (clamped) firing time, seq the number
	// the event was queued under, class its handler class.
	scheduled(e *Engine, t int64, seq uint64, class Class)
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

func (s observerSet) scheduled(e *Engine, t int64, seq uint64, class Class) {
	for _, o := range s {
		o.scheduled(e, t, seq, class)
	}
}

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
// seam in a fixed order: digest, ledger, profiler.
func (e *Engine) setObservers(d *EventDigest, l *Ledger, p *profiler) {
	var s observerSet
	if d != nil {
		s = append(s, d)
	}
	if l != nil {
		s = append(s, l)
	}
	if p != nil {
		s = append(s, p)
	}
	switch len(s) {
	case 0:
		e.obs = nil
	case 1:
		e.obs = s[0]
	default:
		e.obs = s
	}
}
