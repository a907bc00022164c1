package autoclass

// Search-level observability: a notification-only hook emitting the
// lifecycle of every BIG_LOOP try — claimed, per-cycle progress, and the
// in-schedule-order commit verdict. Like CycleObserver, a SearchObserver
// must never feed back into the search (SPMD safety): the trajectory with
// an observer attached is bitwise identical to the unobserved run, and the
// disabled (nil-observer) path performs zero allocations.

// TryEventKind labels one point in a try's lifecycle.
type TryEventKind uint8

const (
	// TryClaimed fires when a worker claims the variant and is about to
	// run it.
	TryClaimed TryEventKind = iota
	// TryCycle fires after each EM cycle of a running try.
	TryCycle
	// TryConverged fires when the try commits as a kept (non-duplicate)
	// result; the Converged field distinguishes true EM convergence from
	// hitting the cycle cap.
	TryConverged
	// TryDuplicate fires when the try commits as a rediscovered local
	// optimum (duplicate elimination, paper Fig. 2).
	TryDuplicate
	// TryEarlyStopped fired when basin early termination cut the try,
	// which committed as a duplicate. No search emits it now; the kind
	// keeps its value and name for observers that count it.
	TryEarlyStopped
)

// String names the kind for logs and progress lines.
func (k TryEventKind) String() string {
	switch k {
	case TryClaimed:
		return "claimed"
	case TryCycle:
		return "cycle"
	case TryConverged:
		return "converged"
	case TryDuplicate:
		return "duplicate"
	case TryEarlyStopped:
		return "early-stopped"
	}
	return "unknown"
}

// TryEvent is one search lifecycle notification. Commit-kind events are
// emitted strictly in schedule order; claimed and cycle events follow
// execution order, which with SearchParallelism > 1 interleaves across
// workers.
type TryEvent struct {
	Kind TryEventKind
	// Index is the variant's position in the sequential schedule; StartJ,
	// Try and Seed identify it in the start_j_list × tries grid.
	Index       int
	StartJ, Try int
	Seed        uint64
	// Cycle is the 0-based EM cycle just finished (TryCycle only); Cycles
	// is the try's total cycle count (commit kinds only).
	Cycle, Cycles int
	// J and LogPost are the classification's current shape and quality;
	// Score is the commit-time model score (commit kinds only).
	J       int
	LogPost float64
	Score   float64
	// Converged reports true EM convergence (commit kinds only).
	Converged bool
	// Done counts committed tries — including any prefix restored from a
	// checkpoint, so it is monotonically non-decreasing across resumes —
	// and Total the scheduled tries. TryCycle events leave Done zero (the
	// cycle adapter has no view of the commit log); progress consumers
	// should fold Done in with max().
	Done, Total int
	// BestScore and BestJ describe the best committed classification so
	// far (BestScore is -Inf before the first keep).
	BestScore float64
	BestJ     int
}

// SearchObserver receives try lifecycle events. Implementations must be
// notification-only — no communication, no feedback into the engine — and,
// when SearchParallelism > 1, safe for concurrent use. They must not call
// back into the scheduler: commit-kind events are delivered under its lock.
type SearchObserver interface {
	ObserveTry(TryEvent)
}

// tryCycleObserver adapts a variant's engine cycle stream into TryCycle
// events, chaining to the try's original cycle observer.
type tryCycleObserver struct {
	so    SearchObserver
	next  CycleObserver
	v     Variant
	total int
}

// NewTryCycleObserver returns a CycleObserver forwarding each cycle of
// variant v as a TryCycle event to so, then to next (when non-nil).
func NewTryCycleObserver(so SearchObserver, next CycleObserver, v Variant, total int) CycleObserver {
	return &tryCycleObserver{so: so, next: next, v: v, total: total}
}

func (t *tryCycleObserver) ObserveCycle(info CycleInfo) {
	t.so.ObserveTry(TryEvent{
		Kind:    TryCycle,
		Index:   t.v.Index,
		StartJ:  t.v.StartJ,
		Try:     t.v.Try,
		Seed:    t.v.Seed,
		Cycle:   info.Cycle,
		J:       info.J,
		LogPost: info.LogPost,
		Total:   t.total,
	})
	if t.next != nil {
		t.next.ObserveCycle(info)
	}
}
