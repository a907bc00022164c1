package obs

import (
	"encoding/json"
	"io"
	"math"

	"repro/internal/autoclass"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// Metric names recorded per rank. Virtual-time metrics only accumulate
// when the rank is bound to a simnet.Clock.
const (
	MetricCycles        = "engine.cycles"
	MetricLogPost       = "engine.logpost"
	MetricDelta         = "engine.logpost_delta"
	MetricClasses       = "engine.classes"
	MetricReductions    = "engine.reductions"
	MetricReducedValues = "engine.reduced_values"
	MetricWtsSeconds    = "engine.update_wts_seconds"
	MetricParamsSeconds = "engine.update_parameters_seconds"
	MetricApproxSeconds = "engine.update_approximations_seconds"
	MetricCycleSeconds  = "engine.cycle_seconds"
	MetricComputeOps    = "sim.compute_ops"
	MetricComputeSec    = "sim.compute_seconds"
	MetricCommSec       = "sim.comm_seconds"
	MetricWaitSec       = "sim.wait_seconds"
	MetricCollectives   = "mpi.collectives"
	MetricSentValues    = "mpi.sent_values"
	MetricCollSteps     = "mpi.steps"
	MetricPayloadBytes  = "mpi.payload_bytes"
	MetricTimeouts      = "mpi.timeouts"
	MetricTryClaimed    = "search.tries.claimed"
	MetricTryCommitted  = "search.tries.committed"
	MetricTryDuplicate  = "search.tries.duplicate"
	MetricTryEarlyStop  = "search.tries.early_stopped"
	MetricTriesDone     = "search.tries_done"
	MetricTriesTotal    = "search.tries_total"
	MetricBestScore     = "search.best_score"
	MetricTryCycles     = "search.try_cycles"
)

// Rank records one rank's run. It implements the three observability hook
// interfaces — mpi.CollectiveObserver, simnet.ClockObserver and
// autoclass.CycleObserver — so a single *Rank plugs into the communicator,
// the virtual clock and the engine. All methods are nil-safe; a nil *Rank
// disables observation wherever it is installed.
//
// A Rank must only be driven by its own rank's goroutine (the tracer tracks
// are lock-free by that ownership); the atomic registry metrics tolerate
// concurrent readers at any time.
type Rank struct {
	run   *Run
	rank  int
	reg   *Registry
	clock *simnet.Clock

	// Pre-bound metric handles: the hot path records through atomics
	// without registry lookups.
	cCycles, cReductions, cReducedValues *Counter
	cWts, cParams, cApprox               *Counter
	cOps, cComputeSec, cCommSec, cWait   *Counter
	cTimeouts                            *Counter
	cTryClaimed, cTryCommitted           *Counter
	cTryDuplicate, cTryEarlyStop         *Counter
	gLogPost, gDelta, gClasses           *Gauge
	gTriesDone, gTriesTotal, gBestScore  *Gauge
	hCycleSeconds, hPayloadBytes         *Histogram
	hTryCycles                           *Histogram
	collCount, collSteps, collValues     map[string]*Counter

	// pendingColl names the collective the next clock sync charges for.
	// Written by ObserveCollective, read by ObserveSync, both on the rank
	// goroutine.
	pendingColl string
	// wallTS is the fallback timeline (accumulated wall phase seconds)
	// used when no clock is bound.
	wallTS float64
}

// collectiveNames are the communicator's collective labels, pre-registered
// so ObserveCollective never takes the registry lock.
var collectiveNames = []string{"allreduce", "bcast", "gather"}

func newRank(run *Run, rank int) *Rank {
	r := &Rank{
		run:        run,
		rank:       rank,
		reg:        NewRegistry(),
		collCount:  make(map[string]*Counter, len(collectiveNames)),
		collSteps:  make(map[string]*Counter, len(collectiveNames)),
		collValues: make(map[string]*Counter, len(collectiveNames)),
	}
	r.cCycles = r.reg.Counter(MetricCycles)
	r.cReductions = r.reg.Counter(MetricReductions)
	r.cReducedValues = r.reg.Counter(MetricReducedValues)
	r.cWts = r.reg.Counter(MetricWtsSeconds)
	r.cParams = r.reg.Counter(MetricParamsSeconds)
	r.cApprox = r.reg.Counter(MetricApproxSeconds)
	r.cOps = r.reg.Counter(MetricComputeOps)
	r.cComputeSec = r.reg.Counter(MetricComputeSec)
	r.cCommSec = r.reg.Counter(MetricCommSec)
	r.cWait = r.reg.Counter(MetricWaitSec)
	r.cTimeouts = r.reg.Counter(MetricTimeouts)
	r.cTryClaimed = r.reg.Counter(MetricTryClaimed)
	r.cTryCommitted = r.reg.Counter(MetricTryCommitted)
	r.cTryDuplicate = r.reg.Counter(MetricTryDuplicate)
	r.cTryEarlyStop = r.reg.Counter(MetricTryEarlyStop)
	r.gLogPost = r.reg.Gauge(MetricLogPost)
	r.gDelta = r.reg.Gauge(MetricDelta)
	r.gClasses = r.reg.Gauge(MetricClasses)
	r.gTriesDone = r.reg.Gauge(MetricTriesDone)
	r.gTriesTotal = r.reg.Gauge(MetricTriesTotal)
	r.gBestScore = r.reg.Gauge(MetricBestScore)
	r.hCycleSeconds = r.reg.Histogram(MetricCycleSeconds)
	r.hPayloadBytes = r.reg.Histogram(MetricPayloadBytes)
	r.hTryCycles = r.reg.Histogram(MetricTryCycles)
	for _, name := range collectiveNames {
		r.collCount[name] = r.reg.Counter(MetricCollectives + "." + name)
		r.collSteps[name] = r.reg.Counter(MetricCollSteps + "." + name)
		r.collValues[name] = r.reg.Counter(MetricSentValues + "." + name)
	}
	return r
}

// Registry returns the rank's metrics registry (nil for a nil rank, which
// in turn hands out nil — and therefore no-op — metric handles).
func (r *Rank) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// BindClock attaches the rank to its virtual clock: the clock's charges
// drive the rank's virtual timeline and comm/compute accounting. It also
// installs the rank as the clock's observer. Safe to call repeatedly.
func (r *Rank) BindClock(c *simnet.Clock) {
	if r == nil || c == nil {
		return
	}
	r.clock = c
	c.SetObserver(r)
}

// now returns the rank's current timeline position: the virtual clock when
// bound, the accumulated wall phase seconds otherwise.
func (r *Rank) now() float64 {
	if r.clock != nil {
		return r.clock.Elapsed()
	}
	return r.wallTS
}

func (r *Rank) emit(ev Event) {
	if r.run != nil {
		r.run.tracer.Emit(r.rank, ev)
	}
}

// ObserveCollective implements mpi.CollectiveObserver: per-op counters and
// the payload-size distribution, plus the name handoff to the next clock
// sync. The registry maps are read-only after construction, so this
// is safe even if a collective races an observer (re)install elsewhere.
func (r *Rank) ObserveCollective(name string, steps, sentValues int) {
	if r == nil {
		return
	}
	if c := r.collCount[name]; c != nil {
		c.Add(1)
		r.collSteps[name].Add(float64(steps))
		r.collValues[name].Add(float64(sentValues))
	} else {
		// Unknown collective label: fall back to the locked registry path.
		r.reg.Counter(MetricCollectives + "." + name).Add(1)
		r.reg.Counter(MetricCollSteps + "." + name).Add(float64(steps))
		r.reg.Counter(MetricSentValues + "." + name).Add(float64(sentValues))
	}
	r.hPayloadBytes.Observe(float64(8 * sentValues))
	r.pendingColl = name
}

// ObserveTimeout implements mpi.FaultObserver: count the communicator's
// operations that hit their per-op deadline.
func (r *Rank) ObserveTimeout(op string) {
	if r == nil {
		return
	}
	r.cTimeouts.Add(1)
}

// ObserveOps implements simnet.ClockObserver: accumulate modeled compute
// time and draw the compute span on the rank's virtual timeline.
func (r *Rank) ObserveOps(units, seconds float64) {
	if r == nil {
		return
	}
	r.cOps.Add(units)
	r.cComputeSec.Add(seconds)
	if seconds > 0 {
		r.emit(Event{
			Name: "compute", Cat: "compute", Ph: 'X',
			TS: r.now() - seconds, Dur: seconds,
			Args: []Arg{{"ops", units}},
		})
	}
}

// ObserveSync implements simnet.ClockObserver: accumulate modeled comm and
// wait time and draw the modeled collective on the timeline, named after
// the preceding collective observed on the communicator and labeled with
// the modeled message's own payload.
func (r *Rank) ObserveSync(cost, wait float64, payloadValues int) {
	if r == nil {
		return
	}
	r.cCommSec.Add(cost)
	r.cWait.Add(wait)
	name := r.pendingColl
	if name == "" {
		name = "collective"
	}
	dur := cost + wait
	if dur > 0 {
		r.emit(Event{
			Name: "comm:" + name, Cat: "comm", Ph: 'X',
			TS: r.now() - dur, Dur: dur,
			Args: []Arg{
				{"cost_s", cost},
				{"wait_s", wait},
				{"payload_values", float64(payloadValues)},
			},
		})
	}
}

// ObserveCycle implements autoclass.CycleObserver: per-cycle engine
// metrics, the convergence counter tracks, and a cycle marker on the
// timeline. Identical reduced values drive every rank's engine, so the
// logpost/J counter tracks are emitted on rank 0 only.
func (r *Rank) ObserveCycle(info autoclass.CycleInfo) {
	if r == nil {
		return
	}
	cs := info.Stats
	wall := cs.WtsSeconds + cs.ParamsSeconds + cs.ApproxSeconds
	r.cCycles.Add(1)
	r.cWts.Add(cs.WtsSeconds)
	r.cParams.Add(cs.ParamsSeconds)
	r.cApprox.Add(cs.ApproxSeconds)
	r.cReductions.Add(float64(cs.Reductions))
	r.cReducedValues.Add(float64(cs.ReducedValues))
	r.gLogPost.Set(info.LogPost)
	r.gDelta.Set(info.Delta)
	r.gClasses.Set(float64(info.J))
	r.hCycleSeconds.Observe(wall)
	if r.clock == nil {
		r.wallTS += wall
	}
	ts := r.now()
	r.emit(Event{
		Name: "cycle", Cat: "engine", Ph: 'i', TS: ts,
		Args: []Arg{
			{"cycle", float64(info.Cycle)},
			{"J", float64(info.J)},
			{"logpost", info.LogPost},
			{"delta", info.Delta},
			{"wts_s", cs.WtsSeconds},
			{"params_s", cs.ParamsSeconds},
			{"approx_s", cs.ApproxSeconds},
			{"reduced_values", float64(cs.ReducedValues)},
		},
	})
	if r.rank == 0 {
		r.emit(Event{Name: "logpost", Cat: "engine", Ph: 'C', TS: ts,
			Args: []Arg{{"logpost", info.LogPost}}})
		r.emit(Event{Name: "classes", Cat: "engine", Ph: 'C', TS: ts,
			Args: []Arg{{"J", float64(info.J)}}})
	}
}

// ObserveTry implements autoclass.SearchObserver: per-kind try counters,
// the tries-done/total and best-score gauges, and the per-try cycle-count
// distribution. All pre-bound atomic handles — zero allocations, safe for
// the concurrent delivery a variant-parallel search produces.
func (r *Rank) ObserveTry(ev autoclass.TryEvent) {
	if r == nil {
		return
	}
	switch ev.Kind {
	case autoclass.TryClaimed:
		r.cTryClaimed.Add(1)
		r.gTriesTotal.Set(float64(ev.Total))
	case autoclass.TryCycle:
		// Per-cycle engine metrics already flow through ObserveCycle.
	default: // commit verdicts
		r.cTryCommitted.Add(1)
		if ev.Kind == autoclass.TryDuplicate {
			r.cTryDuplicate.Add(1)
		}
		if ev.Kind == autoclass.TryEarlyStopped {
			r.cTryDuplicate.Add(1)
			r.cTryEarlyStop.Add(1)
		}
		r.gTriesDone.Set(float64(ev.Done))
		r.gTriesTotal.Set(float64(ev.Total))
		r.hTryCycles.Observe(float64(ev.Cycles))
		if !math.IsInf(ev.BestScore, -1) {
			r.gBestScore.Set(ev.BestScore)
		}
	}
}

// Run is a whole-run observability session shared by the in-process ranks:
// one Rank recorder and tracer track per rank, plus run-level export and
// aggregation. Create it before mpi.Run and hand run.Rank(i) to rank i.
type Run struct {
	ranks   []*Rank
	tracer  *Tracer
	machine string
}

// NewRun returns an observability session for p ranks.
func NewRun(p int) *Run {
	if p < 1 {
		p = 1
	}
	run := &Run{tracer: NewTracer(p)}
	run.ranks = make([]*Rank, p)
	for i := range run.ranks {
		run.ranks[i] = newRank(run, i)
	}
	return run
}

// SetMachineLabel records the simulated machine's name for reports.
func (r *Run) SetMachineLabel(name string) {
	if r != nil {
		r.machine = name
	}
}

// Ranks returns the session's rank count (0 for nil).
func (r *Run) Ranks() int {
	if r == nil {
		return 0
	}
	return len(r.ranks)
}

// Rank returns rank i's recorder — nil (and therefore a disabled recorder)
// when the session is nil or i is out of range, so callers can wire
// unconditionally.
func (r *Run) Rank(i int) *Rank {
	if r == nil || i < 0 || i >= len(r.ranks) {
		return nil
	}
	return r.ranks[i]
}

// Tracer returns the session's tracer (nil for a nil run).
func (r *Run) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// WriteChromeTrace exports the run as a Chrome trace-event file.
func (r *Run) WriteChromeTrace(w io.Writer) error { return r.Tracer().WriteChromeTrace(w) }

// WriteEventsJSONL exports the run's raw events as JSON lines.
func (r *Run) WriteEventsJSONL(w io.Writer) error { return r.Tracer().WriteJSONL(w) }

// runMetrics is the JSON shape of WriteMetricsJSON.
type runMetrics struct {
	Machine   string     `json:"machine,omitempty"`
	Ranks     int        `json:"ranks"`
	PerRank   []Snapshot `json:"per_rank"`
	Breakdown *Breakdown `json:"breakdown,omitempty"`
}

// WriteMetricsJSON exports every rank's registry snapshot plus the
// comm/compute breakdown as indented JSON.
func (r *Run) WriteMetricsJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	m := runMetrics{Machine: r.machine, Ranks: len(r.ranks)}
	for _, rk := range r.ranks {
		m.PerRank = append(m.PerRank, rk.reg.Snapshot())
	}
	b := r.Breakdown()
	m.Breakdown = &b
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Aggregate merges every rank's counters into one registry (handy for
// run-level assertions in tests and smoke checks).
func (r *Run) Aggregate() *Registry {
	agg := NewRegistry()
	if r == nil {
		return agg
	}
	for _, rk := range r.ranks {
		rk.reg.mergeInto(agg)
	}
	return agg
}

var _ mpi.CollectiveObserver = (*Rank)(nil)
var _ mpi.FaultObserver = (*Rank)(nil)
var _ simnet.ClockObserver = (*Rank)(nil)
var _ autoclass.CycleObserver = (*Rank)(nil)
var _ autoclass.SearchObserver = (*Rank)(nil)
