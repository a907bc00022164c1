package simnet

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mpi"
)

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 1000: 10}
	for p, want := range cases {
		if got := CeilLog2(p); got != want {
			t.Errorf("CeilLog2(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestMachineValidate(t *testing.T) {
	if err := MeikoCS2().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := PentiumPC().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Machine{Name: "bad", OpRate: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero op rate accepted")
	}
	neg := Machine{Name: "neg", OpRate: 1, Alpha: -1}
	if err := neg.Validate(); err == nil {
		t.Fatal("negative alpha accepted")
	}
}

func TestCollectiveCosts(t *testing.T) {
	m := Machine{Name: "m", OpRate: 1, Alpha: 1e-3, Beta: 1e-6}
	if c := m.BcastCost(1, 100); c != 0 {
		t.Fatalf("single-rank bcast cost %v", c)
	}
	// p=4: 2 rounds of (alpha + 100 bytes * beta).
	want := 2 * (1e-3 + 100e-6)
	if c := m.BcastCost(4, 100); math.Abs(c-want) > 1e-12 {
		t.Fatalf("bcast cost %v, want %v", c, want)
	}
	if c := m.AllreduceCost(4, 100); math.Abs(c-2*want) > 1e-12 {
		t.Fatalf("allreduce cost %v, want %v", c, 2*want)
	}
	// Cost grows with P in log steps.
	if m.AllreduceCost(8, 100) <= m.AllreduceCost(4, 100) {
		t.Fatal("cost should grow with P")
	}
}

func TestClockChargeOps(t *testing.T) {
	clk := MustNewClock(Machine{Name: "m", OpRate: 1000})
	clk.ChargeOps(500)
	if got := clk.Elapsed(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("elapsed %v, want 0.5", got)
	}
	if clk.Ops() != 500 {
		t.Fatalf("ops %v", clk.Ops())
	}
	clk.ChargeOps(-10) // ignored
	clk.ChargeOps(math.NaN())
	if got := clk.Elapsed(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("negative/NaN charge changed the clock: %v", got)
	}
}

func TestNewClockRejectsBadMachine(t *testing.T) {
	if _, err := NewClock(Machine{}); err == nil {
		t.Fatal("bad machine accepted")
	}
}

func TestSyncAllreduceSynchronizesToMax(t *testing.T) {
	m := Machine{Name: "m", OpRate: 1e6, Alpha: 1e-3, Beta: 0}
	const p = 4
	elapsed := make([]float64, p)
	comms := make([]float64, p)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		clk := MustNewClock(m)
		// Rank r computes r+1 million ops => r+1 seconds.
		clk.ChargeOps(float64(c.Rank()+1) * 1e6)
		if err := clk.SyncAllreduce(c, 10); err != nil {
			return err
		}
		elapsed[c.Rank()] = clk.Elapsed()
		comms[c.Rank()] = clk.CommSeconds()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cost := m.AllreduceCost(p, 80)
	want := 4.0 + cost // slowest rank took 4 s
	for r := 0; r < p; r++ {
		if math.Abs(elapsed[r]-want) > 1e-9 {
			t.Fatalf("rank %d elapsed %v, want %v", r, elapsed[r], want)
		}
	}
	// Rank 0 waited 3 s + cost; rank 3 waited only cost.
	if math.Abs(comms[0]-(3+cost)) > 1e-9 {
		t.Fatalf("rank 0 comm %v, want %v", comms[0], 3+cost)
	}
	if math.Abs(comms[3]-cost) > 1e-9 {
		t.Fatalf("rank 3 comm %v, want %v", comms[3], cost)
	}
}

func TestSyncSingleRankIsFree(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		clk := MustNewClock(MeikoCS2())
		clk.ChargeOps(100)
		before := clk.Elapsed()
		if err := clk.SyncAllreduce(c, 1000); err != nil {
			return err
		}
		if clk.Elapsed() != before {
			return fmt.Errorf("single-rank sync charged time")
		}
		if clk.Collectives() != 1 {
			return fmt.Errorf("collective not counted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSyncVariants(t *testing.T) {
	err := mpi.Run(3, func(c *mpi.Comm) error {
		clk := MustNewClock(MeikoCS2())
		if err := clk.SyncBarrier(c); err != nil {
			return err
		}
		if clk.Collectives() != 1 {
			return fmt.Errorf("collectives %d", clk.Collectives())
		}
		if clk.Elapsed() <= 0 {
			return fmt.Errorf("no cost charged")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScaleupIsFlatUnderTheModel(t *testing.T) {
	// The property behind the paper's Fig. 8: with fixed work per rank,
	// elapsed virtual time grows only by the slow log-P communication term.
	m := MeikoCS2()
	perRankOps := 400000.0 // ~10k tuples, 8 clusters, one cycle
	times := make(map[int]float64)
	for _, p := range []int{1, 2, 4, 8, 10} {
		var t0 float64
		err := mpi.Run(p, func(c *mpi.Comm) error {
			clk := MustNewClock(m)
			clk.ChargeOps(perRankOps)
			if err := clk.SyncAllreduce(c, 60); err != nil {
				return err
			}
			if c.Rank() == 0 {
				t0 = clk.Elapsed()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		times[p] = t0
	}
	if times[10] > times[1]*1.1 {
		t.Fatalf("scaleup not flat: T(1)=%v T(10)=%v", times[1], times[10])
	}
	if times[10] < times[1] {
		t.Fatalf("T(10)=%v should not beat T(1)=%v with fixed per-rank work", times[10], times[1])
	}
}

func TestFormatHMS(t *testing.T) {
	cases := map[float64]string{
		0:      "0.00.00",
		59:     "0.00.59",
		60:     "0.01.00",
		3599:   "0.59.59",
		3600:   "1.00.00",
		7325:   "2.02.05",
		-5:     "0.00.00",
		3599.6: "1.00.00", // rounds
	}
	for in, want := range cases {
		if got := FormatHMS(in); got != want {
			t.Errorf("FormatHMS(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestAllreduceCostAlgo(t *testing.T) {
	m := Machine{Name: "m", OpRate: 1, Alpha: 1e-3, Beta: 1e-7}
	const bytes = 1000
	// Single rank is always free.
	for _, algo := range []AllreduceAlgo{ReduceBcast, RecursiveDoubling, Ring} {
		if c := m.AllreduceCostAlgo(algo, 1, bytes); c != 0 {
			t.Fatalf("%v: single-rank cost %v", algo, c)
		}
	}
	// Power-of-two P: recursive doubling is exactly half of reduce+bcast.
	rb := m.AllreduceCostAlgo(ReduceBcast, 8, bytes)
	rd := m.AllreduceCostAlgo(RecursiveDoubling, 8, bytes)
	if math.Abs(rd*2-rb) > 1e-12 {
		t.Fatalf("rd=%v rb=%v", rd, rb)
	}
	// Non-power-of-two adds two fold-in rounds.
	rd10 := m.AllreduceCostAlgo(RecursiveDoubling, 10, bytes)
	wantRounds := float64(CeilLog2(10) + 2)
	if math.Abs(rd10-wantRounds*(1e-3+bytes*1e-7)) > 1e-12 {
		t.Fatalf("rd10=%v", rd10)
	}
	// Ring: 2(P-1) rounds of 1/P fragments.
	ring := m.AllreduceCostAlgo(Ring, 4, bytes)
	want := 2.0 * 3 * (1e-3 + bytes*1e-7/4)
	if math.Abs(ring-want) > 1e-12 {
		t.Fatalf("ring=%v want %v", ring, want)
	}
	// Latency-dominated regime: ring loses. Bandwidth-dominated: ring wins.
	smallMsg := m.AllreduceCostAlgo(Ring, 8, 100)
	if smallMsg <= m.AllreduceCostAlgo(RecursiveDoubling, 8, 100) {
		t.Fatal("ring should lose on small messages")
	}
	bigBytes := 100_000_000
	if m.AllreduceCostAlgo(Ring, 8, bigBytes) >= m.AllreduceCostAlgo(ReduceBcast, 8, bigBytes) {
		t.Fatal("ring should win on huge messages")
	}
}

func TestPCClusterPreset(t *testing.T) {
	pc := PCCluster()
	if err := pc.Validate(); err != nil {
		t.Fatal(err)
	}
	meiko := MeikoCS2()
	// The PC cluster's interconnect is worse on both axes.
	if pc.Alpha <= meiko.Alpha || pc.Beta <= meiko.Beta {
		t.Fatal("PC cluster should have a slower interconnect than the CS-2")
	}
}

func TestSyncAllreduceAlgoChargesAlgorithmCost(t *testing.T) {
	m := Machine{Name: "m", OpRate: 1e6, Alpha: 1e-3, Beta: 0}
	err := mpi.Run(4, func(c *mpi.Comm) error {
		rb := MustNewClock(m)
		rd := MustNewClock(m)
		rd.SetAllreduceAlgo(RecursiveDoubling)
		if err := rb.SyncAllreduce(c, 10); err != nil {
			return err
		}
		if err := rd.SyncAllreduce(c, 10); err != nil {
			return err
		}
		if rd.Elapsed() >= rb.Elapsed() {
			return fmt.Errorf("rd %v should beat rb %v", rd.Elapsed(), rb.Elapsed())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestContendedCostsExceedSwitched(t *testing.T) {
	switched := Machine{Name: "sw", OpRate: 1, Alpha: 1e-3, Beta: 1e-6}
	hub := switched
	hub.Contended = true
	hub.Name = "hub"
	const bytes = 10000
	for _, p := range []int{2, 4, 8, 10} {
		if hub.BcastCost(p, bytes) < switched.BcastCost(p, bytes) {
			t.Fatalf("p=%d: contended bcast cheaper than switched", p)
		}
		for _, algo := range []AllreduceAlgo{ReduceBcast, RecursiveDoubling, Ring} {
			if hub.AllreduceCostAlgo(algo, p, bytes) < switched.AllreduceCostAlgo(algo, p, bytes) {
				t.Fatalf("p=%d algo=%v: contended cheaper than switched", p, algo)
			}
		}
	}
	// At p=2 a single transfer per stage: identical costs.
	if hub.BcastCost(2, bytes) != switched.BcastCost(2, bytes) {
		t.Fatal("p=2 should cost the same on hub and switch")
	}
	// Contended bcast bandwidth term covers all P-1 transfers.
	got := hub.BcastCost(8, bytes)
	want := 3*hub.Alpha + 7*float64(bytes)*hub.Beta
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("contended bcast %v, want %v", got, want)
	}
}

func TestEthernetHubPreset(t *testing.T) {
	hub := EthernetHubCluster()
	if err := hub.Validate(); err != nil {
		t.Fatal(err)
	}
	if !hub.Contended {
		t.Fatal("hub cluster should be contended")
	}
	// The shared segment is far slower than the switched Fast Ethernet.
	if hub.Beta <= PCCluster().Beta {
		t.Fatal("hub should have less bandwidth than the switched cluster")
	}
}

func TestStragglerDominatesGroupTime(t *testing.T) {
	// Heterogeneous nodes: one rank at half speed drags every clock to its
	// own finish time at the next collective — the reason the paper's
	// equal-size partitions matter ("it also does not have load balancing
	// problems", §3).
	fast := Machine{Name: "fast", OpRate: 2e6, Alpha: 1e-4, Beta: 0}
	slow := fast
	slow.OpRate = 1e6
	const p = 4
	const work = 1e6 // ops per rank
	elapsed := make([]float64, p)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		m := fast
		if c.Rank() == p-1 {
			m = slow
		}
		clk := MustNewClock(m)
		clk.ChargeOps(work)
		if err := clk.SyncAllreduce(c, 8); err != nil {
			return err
		}
		elapsed[c.Rank()] = clk.Elapsed()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantMin := work / slow.OpRate // 1 second: the straggler's compute time
	for r, e := range elapsed {
		if e < wantMin {
			t.Fatalf("rank %d finished in %v, before the straggler's %v", r, e, wantMin)
		}
		if e > wantMin*1.01 {
			t.Fatalf("rank %d took %v, far beyond the straggler bound", r, e)
		}
	}
}

// Cores × SetParallelism scales computation time, capped at the node's core
// count, and never changes the op-unit totals or communication terms.
func TestChargeOpsScalesWithParallelism(t *testing.T) {
	m := SMPCluster()
	if m.Cores != 8 {
		t.Fatalf("SMPCluster cores %d", m.Cores)
	}
	base := MustNewClock(m)
	base.ChargeOps(1e6)
	cases := []struct {
		par     int
		speedup float64
	}{
		{0, 1}, {1, 1}, {4, 4}, {8, 8}, {64, 8}, // capped at Cores
	}
	for _, c := range cases {
		clk := MustNewClock(m)
		clk.SetParallelism(c.par)
		clk.ChargeOps(1e6)
		want := base.Elapsed() / c.speedup
		if math.Abs(clk.Elapsed()-want) > 1e-12*want {
			t.Errorf("par %d: elapsed %v, want %v", c.par, clk.Elapsed(), want)
		}
		if clk.Ops() != base.Ops() {
			t.Errorf("par %d: ops %v changed (work is not divided, time is)", c.par, clk.Ops())
		}
	}
	// Single-core presets are immune to the knob.
	clk := MustNewClock(MeikoCS2())
	clk.SetParallelism(16)
	clk.ChargeOps(1e6)
	ref := MustNewClock(MeikoCS2())
	ref.ChargeOps(1e6)
	if clk.Elapsed() != ref.Elapsed() {
		t.Errorf("single-core machine sped up: %v vs %v", clk.Elapsed(), ref.Elapsed())
	}
}

func TestValidateRejectsNegativeCores(t *testing.T) {
	m := MeikoCS2()
	m.Cores = -1
	if err := m.Validate(); err == nil {
		t.Fatal("negative Cores accepted")
	}
}
