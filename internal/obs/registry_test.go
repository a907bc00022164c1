package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Add(1.5)
	c.Add(2.5)
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %v, want 4", got)
	}
	if r.Counter("x") != c {
		t.Fatal("Counter not idempotent by name")
	}
	g := r.Gauge("y")
	if g.Value() != 0 {
		t.Fatal("unset gauge should read 0")
	}
	g.Set(-3)
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
	c.Add(math.NaN()) // ignored, not poisoned
	if got := c.Value(); got != 4 {
		t.Fatalf("counter after NaN = %v, want 4", got)
	}
}

func TestNilRegistryAndHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	// All of these must be safe no-ops.
	c.Add(1)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 ||
		h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil handles must read zero")
	}
	if r.Names() != nil {
		t.Fatal("nil registry Names should be nil")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 2, 4, 8, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 1015 {
		t.Fatalf("sum = %v", h.Sum())
	}
	if h.Min() != 1 || h.Max() != 1000 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	// Quantile is a power-of-two upper bound: the median observation is 4,
	// so the estimate must cover it and stay within a factor of two.
	q := h.Quantile(0.5)
	if q < 4 || q > 8 {
		t.Fatalf("p50 = %v, want in [4,8]", q)
	}
	if h.Quantile(1) < 1000 {
		t.Fatalf("p100 = %v, want >= 1000", h.Quantile(1))
	}
	// Underflow and overflow land in the end buckets without panicking.
	h.Observe(0)
	h.Observe(-5)
	h.Observe(math.Inf(1))
	if h.Count() != 8 {
		t.Fatalf("count after edge values = %d", h.Count())
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Add(1)
				r.Gauge("g").Set(float64(i))
				r.Histogram("h").Observe(float64(i % 16))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %v, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestSnapshotWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(2)
	r.Gauge("b").Set(3)
	r.Histogram("c").Observe(4)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if s.Counters["a"] != 2 || s.Gauges["b"] != 3 || s.Histograms["c"].Count != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
}

// TestDisabledPathDoesNotAllocate is half of the CI allocation guard: the
// nil-handle recording paths — what every instrumented call site costs when
// observability is off — must not allocate.
func TestDisabledPathDoesNotAllocate(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var rk *Rank
	if n := testing.AllocsPerRun(100, func() {
		c.Add(1)
		g.Set(1)
		h.Observe(1)
		rk.ObserveCollective("allreduce", 2, 64)
		rk.ObserveOps(10, 0.1)
		rk.ObserveSync(0.1, 0.2, 8)
	}); n != 0 {
		t.Fatalf("disabled observability path allocates %v times per call", n)
	}
}

// TestEnabledHotPathDoesNotAllocate is the other half: live counters,
// gauges and histograms must record through atomics with zero allocations.
func TestEnabledHotPathDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	if n := testing.AllocsPerRun(100, func() {
		c.Add(1)
		g.Set(2)
		h.Observe(3)
	}); n != 0 {
		t.Fatalf("metric hot path allocates %v times per call", n)
	}
}
