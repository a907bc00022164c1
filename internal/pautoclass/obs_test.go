package pautoclass

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/autoclass"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// searchObserved runs a parallel search with the full observability stack
// (metrics, tracer, clock binding) installed when session is non-nil, and
// returns rank 0's result plus its virtual elapsed time.
func searchObserved(t testing.TB, p int, cfg autoclass.SearchConfig, strategy Strategy,
	session *obs.Run) (*autoclass.SearchResult, float64) {
	t.Helper()
	ds := paperDS(t, 2000)
	machine := simnet.MeikoCS2()
	var mu sync.Mutex
	var out *autoclass.SearchResult
	var elapsed float64
	err := mpi.Run(p, func(c *mpi.Comm) error {
		clk := simnet.MustNewClock(machine)
		opts := Options{EM: cfg.EM, Strategy: strategy, Clock: clk}
		opts.Obs = session.Rank(c.Rank())
		res, err := Search(c, ds, model.DefaultSpec(ds), cfg, opts)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			out = res
			elapsed = clk.Elapsed()
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, elapsed
}

// TestObservabilityPreservesTrajectory is the SPMD invariant of the
// observability layer: the identical search with tracing and metrics on
// must produce a bitwise-identical trajectory — same per-try
// histories, same best posterior bits, same virtual clock — as with it off.
func TestObservabilityPreservesTrajectory(t *testing.T) {
	cfg := quickSearchConfig()
	cfg.StartJList = []int{4}
	cfg.EM.MaxCycles = 15

	for _, strategy := range []Strategy{Full, WtsOnly} {
		bare, bareElapsed := searchObserved(t, 4, cfg, strategy, nil)
		session := obs.NewRun(4)
		traced, tracedElapsed := searchObserved(t, 4, cfg, strategy, session)

		if math.Float64bits(bare.Best.LogPost) != math.Float64bits(traced.Best.LogPost) {
			t.Fatalf("%v: best logpost diverged with observability on: %x vs %x",
				strategy, math.Float64bits(bare.Best.LogPost), math.Float64bits(traced.Best.LogPost))
		}
		if bareElapsed != tracedElapsed {
			t.Fatalf("%v: virtual elapsed diverged: %v vs %v", strategy, bareElapsed, tracedElapsed)
		}
		if len(bare.Tries) != len(traced.Tries) {
			t.Fatalf("%v: try count diverged: %d vs %d", strategy, len(bare.Tries), len(traced.Tries))
		}
		if !reflect.DeepEqual(bare.Tries, traced.Tries) {
			t.Fatalf("%v: try records diverged with observability on:\n%+v\nvs\n%+v",
				strategy, bare.Tries, traced.Tries)
		}
		// And the observed run must actually have recorded something.
		if session.Aggregate().Counter(obs.MetricCycles).Value() == 0 {
			t.Fatalf("%v: observability session recorded no cycles", strategy)
		}
	}
}

// TestPhaseProfileRecordsEnginePhases is the -phase-profile satellite: the
// Totals of a parallel run, which the §3.1-style table renders, time both
// dominant base_cycle phases under either strategy.
func TestPhaseProfileRecordsEnginePhases(t *testing.T) {
	cfg := quickSearchConfig()
	cfg.StartJList = []int{4}
	cfg.EM.MaxCycles = 10
	for _, strategy := range []Strategy{Full, WtsOnly} {
		res, _ := searchObserved(t, 2, cfg, strategy, nil)
		if tot := res.Totals; tot.WtsSeconds <= 0 || tot.ParamsSeconds <= 0 {
			t.Fatalf("%v: Totals %s %v s, %s %v s, want both positive", strategy,
				autoclass.PhaseWts, tot.WtsSeconds, autoclass.PhaseParams, tot.ParamsSeconds)
		}
	}
}

// TestEngineChromeTrace is the acceptance-criteria run: 8 ranks on the
// Meiko model with tracing on must yield a Chrome trace that parses, has
// one track per rank, and carries monotonic virtual timestamps per track.
func TestEngineChromeTrace(t *testing.T) {
	cfg := quickSearchConfig()
	cfg.StartJList = []int{4}
	cfg.EM.MaxCycles = 8
	const p = 8
	session := obs.NewRun(p)
	session.SetMachineLabel("Meiko CS-2")
	searchObserved(t, p, cfg, Full, session)

	var buf bytes.Buffer
	if err := session.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Tid int     `json:"tid"`
			TS  float64 `json:"ts"`
			Cat string  `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	tracks := map[int]bool{}
	lastTS := map[int]float64{}
	cats := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		tracks[ev.Tid] = true
		cats[ev.Cat] = true
		if ev.TS < lastTS[ev.Tid] {
			t.Fatalf("track %d timestamps not monotonic", ev.Tid)
		}
		lastTS[ev.Tid] = ev.TS
	}
	if len(tracks) != p {
		t.Fatalf("trace has %d tracks, want one per rank (%d)", len(tracks), p)
	}
	for _, cat := range []string{"compute", "comm", "engine"} {
		if !cats[cat] {
			t.Fatalf("trace missing %q events", cat)
		}
	}
}

// TestCommFractionGrowsWithRanks reproduces the paper's Figs. 9/10 shape
// from the observability breakdown: with the dataset fixed, communication's
// share of the accounted virtual time grows with the processor count.
func TestCommFractionGrowsWithRanks(t *testing.T) {
	cfg := quickSearchConfig()
	cfg.StartJList = []int{8}
	cfg.EM.MaxCycles = 5
	var trend obs.Trend
	for _, p := range []int{2, 4, 8} {
		session := obs.NewRun(p)
		searchObserved(t, p, cfg, Full, session)
		trend.Add(session.Breakdown())
	}
	for i := 1; i < len(trend.Rows); i++ {
		prev, cur := trend.Rows[i-1], trend.Rows[i]
		if cur.CommFraction() <= prev.CommFraction() {
			t.Fatalf("comm fraction should grow with ranks:\n%s", trend.Table())
		}
	}
}
