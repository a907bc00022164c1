package autoclass

import (
	"math"
	"testing"
)

// TestDisabledObservabilityAddsNoAllocsToBaseCycle is the CI allocation
// guard for the engine hooks: with no cycle observer installed (the
// default), the per-cycle observation call must not allocate — base_cycle's
// cost is unchanged by the instrumentation points.
func TestDisabledObservabilityAddsNoAllocsToBaseCycle(t *testing.T) {
	ds := paperDS(t, 200)
	cls := mustClassification(t, ds, 3)
	eng := mustEngine(t, ds, cls, DefaultConfig())
	if err := eng.InitRandom(1); err != nil {
		t.Fatal(err)
	}
	cs, err := eng.BaseCycle()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		eng.observeCycle(0, cs, math.Inf(1))
	}); n != 0 {
		t.Fatalf("disabled observeCycle allocates %v times per cycle", n)
	}
}

// TestObserveCycleReportsToHooks verifies the wired path: the cycle
// observer sees every cycle's stats.
func TestObserveCycleReportsToHooks(t *testing.T) {
	ds := paperDS(t, 200)
	cls := mustClassification(t, ds, 3)
	eng := mustEngine(t, ds, cls, DefaultConfig())
	var got []CycleInfo
	eng.SetCycleObserver(cycleObserverFunc(func(info CycleInfo) {
		got = append(got, info)
	}))
	if err := eng.InitRandom(1); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != res.Cycles {
		t.Fatalf("observer saw %d cycles, engine ran %d", len(got), res.Cycles)
	}
	for i, info := range got {
		if info.Cycle != i {
			t.Fatalf("cycle %d reported index %d", i, info.Cycle)
		}
		if info.LogPost != res.History[i] {
			t.Fatalf("cycle %d logpost %v != history %v", i, info.LogPost, res.History[i])
		}
		if info.J < 1 {
			t.Fatalf("cycle %d reported J=%d", i, info.J)
		}
	}
	// The first cycle's delta is measured against the -Inf starting
	// posterior and later ones against the previous cycle; all must be
	// non-negative (RelDiff is absolute).
	for i, info := range got {
		if info.Delta < 0 || math.IsNaN(info.Delta) {
			t.Fatalf("cycle %d delta = %v", i, info.Delta)
		}
	}
}

type cycleObserverFunc func(CycleInfo)

func (f cycleObserverFunc) ObserveCycle(info CycleInfo) { f(info) }
