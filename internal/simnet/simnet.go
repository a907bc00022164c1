// Package simnet models the parallel machine of the paper's evaluation — a
// distributed-memory multicomputer in the mold of the Meiko CS-2 — so that
// the experiments can report elapsed times, speedup and scaleup with the
// communication/computation balance of 1990s hardware, which no longer
// exists to run on.
//
// The model is the standard alpha-beta (LogP-lite) cost model. Every rank
// owns a virtual Clock. Computation is charged as abstract "op units"
// (defined by the engine: one item × class × attribute likelihood or
// statistics update is one unit) converted to seconds by the machine's
// OpRate. Communication is charged at collective boundaries: a tree
// collective over P ranks with an m-byte payload costs
//
//	rounds(P) × (Alpha + m·Beta)
//
// on its critical path, with rounds = ceil(log2 P) for broadcast/reduce and
// 2·ceil(log2 P) for an Allreduce implemented as reduce+broadcast, which is
// what P-AutoClass's total exchange uses. At every collective the ranks'
// clocks synchronize to the maximum (a collective cannot complete before
// its slowest participant) plus the collective's cost. An EM exchange the
// runtime sends as one Allreduce is charged as the paper's messages,
// {w_j, logL} and one per (class, term), in one sync (SyncAllreduce).
//
// The runtime sends every Allreduce as reduce+broadcast. A clock can price
// it under another algorithm instead (SetAllreduceAlgo): the ALGO
// experiment charges one trajectory under each of the three.
//
// The presets are calibrated against the paper's published anchors rather
// than hardware datasheets; see their doc comments.
package simnet

import (
	"fmt"
	"math"

	"repro/internal/mpi"
)

// Machine describes a multicomputer node and interconnect.
type Machine struct {
	// Name labels the machine in reports.
	Name string
	// OpRate is abstract engine op units per second per processor.
	OpRate float64
	// Alpha is the per-message overhead+latency in seconds (software
	// stack included, hence much larger than wire latency).
	Alpha float64
	// Beta is seconds per byte of payload (1/bandwidth).
	Beta float64
	// Cores is the number of processor cores per node available to a
	// rank's intra-rank (shared-memory) parallelism. Zero means one. The
	// interconnect terms are per node, so Cores scales only computation:
	// a clock whose rank runs the hybrid engine with Parallelism p divides
	// op time by min(p, Cores).
	Cores int
	// Contended marks a shared-medium network (a hub or bus rather than
	// the CS-2's fat tree or a switch): transfers that a tree collective
	// would overlap instead serialize on the wire, so each stage pays for
	// every concurrent transfer's bytes. The fat tree and switched
	// networks have full bisection for these patterns and leave this
	// false.
	Contended bool
}

// Validate checks the machine parameters.
func (m Machine) Validate() error {
	if m.OpRate <= 0 {
		return fmt.Errorf("simnet: machine %q has non-positive op rate", m.Name)
	}
	if m.Alpha < 0 || m.Beta < 0 {
		return fmt.Errorf("simnet: machine %q has negative communication cost", m.Name)
	}
	if m.Cores < 0 {
		return fmt.Errorf("simnet: machine %q has negative core count", m.Name)
	}
	return nil
}

// MeikoCS2 is the paper's experimental platform: a Meiko Computing
// Surface 2 with SPARC processors on a fat-tree network with 50 MB/s links
// (paper §4). OpRate is calibrated so that one base_cycle iteration over
// 10 000 tuples/processor with 8 clusters costs ≈0.3 s and with 16 clusters
// ≈0.6 s, the levels the paper's Fig. 8 reports; Alpha reflects the
// effective per-message cost of the era's MPI stacks.
func MeikoCS2() Machine {
	return Machine{
		Name:   "Meiko CS-2 (SPARC, fat tree)",
		OpRate: 1.2e6,
		Alpha:  300e-6,
		Beta:   1.0 / 50e6,
		Cores:  1,
	}
}

// PCCluster models the commodity PC cluster the paper's portability claim
// targets ("P-AutoClass is portable practically on every parallel machine
// from supercomputers to PC clusters", §3.1): Pentium-class nodes on
// switched Fast Ethernet — faster processors than the CS-2's SPARCs but a
// much slower, higher-latency interconnect. Useful for exploring where the
// speedup curves bend on cheaper hardware.
func PCCluster() Machine {
	return Machine{
		Name:   "PC cluster (Fast Ethernet)",
		OpRate: 2.4e6,
		Alpha:  900e-6,
		Beta:   1.0 / 12.5e6, // 100 Mb/s
		Cores:  1,
	}
}

// EthernetHubCluster models the cheapest 1990s option: PC nodes on a
// shared 10 Mb/s Ethernet segment (a hub, not a switch), where concurrent
// transfers contend for the single medium. Useful for showing where the
// paper's portability claim meets its limits.
func EthernetHubCluster() Machine {
	return Machine{
		Name:      "PC cluster (shared 10 Mb/s Ethernet)",
		OpRate:    2.4e6,
		Alpha:     1.2e-3,
		Beta:      1.0 / 1.25e6, // 10 Mb/s
		Contended: true,
		Cores:     1,
	}
}

// PentiumPC is the sequential anchor machine from the paper's §3: AutoClass
// C on a Pentium PC needed over 3 hours for 14K tuples. A Pentium of that
// vintage ran the C engine roughly twice as fast per op as one CS-2 SPARC
// node; it has no interconnect.
func PentiumPC() Machine {
	return Machine{
		Name:   "Pentium PC",
		OpRate: 2.4e6,
		Alpha:  0,
		Beta:   0,
		Cores:  1,
	}
}

// SMPCluster models a cluster of small shared-memory nodes — the natural
// target of the hybrid engine: each rank owns one multi-core node and runs
// the base_cycle's data-parallel phases on Cores workers while the ranks
// still exchange sufficient statistics over the switch. OpRate is per core.
func SMPCluster() Machine {
	return Machine{
		Name:   "SMP cluster (8-core nodes, Gigabit Ethernet)",
		OpRate: 5.0e7,
		Alpha:  20e-6,
		Beta:   1.0 / 125e6, // 1 Gb/s
		Cores:  8,
	}
}

// CeilLog2 returns ceil(log2(p)) with CeilLog2(1) == 0.
func CeilLog2(p int) int {
	if p <= 1 {
		return 0
	}
	n := 0
	v := 1
	for v < p {
		v <<= 1
		n++
	}
	return n
}

// BcastCost returns the critical-path seconds of a binomial-tree broadcast
// of `bytes` over p ranks. On a contended medium, stage s of the tree has
// 2^s simultaneous transfers that serialize on the shared wire.
func (m Machine) BcastCost(p, bytes int) float64 {
	rounds := CeilLog2(p)
	if rounds == 0 {
		return 0
	}
	if !m.Contended {
		return float64(rounds) * (m.Alpha + float64(bytes)*m.Beta)
	}
	cost := 0.0
	concurrent := 1
	remaining := p - 1 // transfers left to perform in total
	for s := 0; s < rounds; s++ {
		c := concurrent
		if c > remaining {
			c = remaining
		}
		cost += m.Alpha + float64(c)*float64(bytes)*m.Beta
		remaining -= c
		concurrent *= 2
	}
	return cost
}

// AllreduceCost returns the critical-path seconds of an Allreduce
// implemented as reduce + broadcast — the paper implementation's pattern.
func (m Machine) AllreduceCost(p, bytes int) float64 {
	return 2 * m.BcastCost(p, bytes)
}

// AllreduceAlgo names an Allreduce algorithm whose cost a clock charges
// (AllreduceCostAlgo, Clock.SetAllreduceAlgo). The runtime sends only
// ReduceBcast (mpi.Comm.Allreduce).
type AllreduceAlgo int

const (
	// ReduceBcast reduces to rank 0 along a binomial tree and broadcasts
	// the result back: the paper implementation's pattern and the default.
	ReduceBcast AllreduceAlgo = iota
	// RecursiveDoubling is the classic butterfly exchange.
	RecursiveDoubling
	// Ring is a bandwidth-optimal reduce-scatter + allgather ring.
	Ring
)

// String implements fmt.Stringer.
func (a AllreduceAlgo) String() string {
	switch a {
	case ReduceBcast:
		return "reduce-bcast"
	case RecursiveDoubling:
		return "recursive-doubling"
	case Ring:
		return "ring"
	default:
		return fmt.Sprintf("AllreduceAlgo(%d)", int(a))
	}
}

// AllreduceCostAlgo returns the critical-path seconds of an Allreduce of
// `bytes` over p ranks under a specific collective algorithm:
//
//   - ReduceBcast: 2·ceil(log2 P) rounds of the full payload;
//   - RecursiveDoubling: ceil(log2 P) rounds of the full payload, plus two
//     fold-in rounds when P is not a power of two;
//   - Ring: 2·(P−1) rounds of 1/P-sized fragments — latency-heavy but
//     bandwidth-optimal for large payloads.
func (m Machine) AllreduceCostAlgo(algo AllreduceAlgo, p, bytes int) float64 {
	if p <= 1 {
		return 0
	}
	full := m.Alpha + float64(bytes)*m.Beta
	switch algo {
	case RecursiveDoubling:
		rounds := float64(CeilLog2(p))
		if p&(p-1) != 0 {
			rounds += 2
		}
		if m.Contended {
			// Every butterfly stage has P simultaneous full-payload
			// transfers sharing the wire.
			return rounds * (m.Alpha + float64(p)*float64(bytes)*m.Beta)
		}
		return rounds * full
	case Ring:
		if m.Contended {
			// Each ring step moves P fragments of bytes/P concurrently:
			// the wire carries the full payload per step.
			return 2 * float64(p-1) * full
		}
		frag := m.Alpha + float64(bytes)*m.Beta/float64(p)
		return 2 * float64(p-1) * frag
	default: // ReduceBcast
		return m.AllreduceCost(p, bytes)
	}
}

// GatherCost returns the critical-path seconds of a linear gather of
// bytesPerRank from every non-root rank to the root — the expensive
// weight-matrix collection of the update_wts-only parallelization baseline.
func (m Machine) GatherCost(p, bytesPerRank int) float64 {
	if p <= 1 {
		return 0
	}
	return float64(p-1) * (m.Alpha + float64(bytesPerRank)*m.Beta)
}

// ClockObserver receives the clock's charges as they happen — the hook the
// observability layer uses to build a per-rank virtual timeline. ObserveOps
// fires after every computation charge with the op units and the virtual
// seconds they cost; ObserveSync fires after every modeled collective of a
// multi-rank synchronization with its modeled cost, the idle seconds the
// rank spent waiting for the group's slowest member, and the float64s of
// the modeled message (so each of the paper's messages that
// SyncAllreduce charges inside one sync reports its own length). Both
// are called with the clock already advanced, so Elapsed() minus the
// reported seconds gives the interval's virtual start time. Observers must
// not call back into the clock's charging or sync methods.
type ClockObserver interface {
	ObserveOps(units, seconds float64)
	ObserveSync(cost, wait float64, payloadValues int)
}

// Clock is one rank's virtual clock. The zero value is invalid; use
// NewClock. Clock is not safe for concurrent use — each rank owns one.
type Clock struct {
	m       Machine
	par     int // intra-rank workers the engine runs with (0/1 = sequential)
	seconds float64
	ops     float64
	comm    float64
	colls   int
	obs     ClockObserver
	oneExch bool          // SetOneExchange
	algo    AllreduceAlgo // SetAllreduceAlgo
}

// NewClock returns a zeroed clock on machine m.
func NewClock(m Machine) (*Clock, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Clock{m: m}, nil
}

// MustNewClock is NewClock for machine presets known to be valid.
func MustNewClock(m Machine) *Clock {
	c, err := NewClock(m)
	if err != nil {
		panic(err)
	}
	return c
}

// Machine returns the clock's machine model.
func (c *Clock) Machine() Machine { return c.m }

// SetParallelism tells the clock how many intra-rank workers the engine is
// running with, so ChargeOps can model the node-level speedup. Values below
// one are treated as one (sequential).
func (c *Clock) SetParallelism(p int) {
	if p < 1 {
		p = 1
	}
	c.par = p
}

// Parallelism returns the intra-rank worker count the clock models.
func (c *Clock) Parallelism() int {
	if c.par < 1 {
		return 1
	}
	return c.par
}

// speedup is the effective intra-rank computation speedup: the configured
// worker count, capped by the machine's cores per node (extra workers
// time-slice, they do not add throughput).
func (c *Clock) speedup() float64 {
	cores := c.m.Cores
	if cores < 1 {
		cores = 1
	}
	p := c.Parallelism()
	if p > cores {
		p = cores
	}
	return float64(p)
}

// SetOneExchange selects the program the clock models at a multi-message
// exchange (SyncAllreduce). Off, the default, it charges the paper's
// messages; on, one message of their summed length, the one Allreduce the
// runtime sends — the variant the ABLAT experiment compares.
func (c *Clock) SetOneExchange(on bool) { c.oneExch = on }

// SetAllreduceAlgo selects the algorithm whose cost SyncAllreduce charges
// for every message (default ReduceBcast). It changes only the modeled
// time, never what the runtime sends: the variants the ALGO experiment
// compares. All ranks of a group must select the same algorithm.
func (c *Clock) SetAllreduceAlgo(a AllreduceAlgo) { c.algo = a }

// SetObserver installs a ClockObserver (nil to disable). Observation never
// changes what the clock charges, only reports it.
func (c *Clock) SetObserver(o ClockObserver) { c.obs = o }

// ChargeOps advances the clock by units/(OpRate·speedup) seconds of
// computation, where speedup is min(SetParallelism, Machine.Cores). Op
// units are counted undivided — speedup compresses time, not work.
func (c *Clock) ChargeOps(units float64) {
	if units < 0 || math.IsNaN(units) {
		return
	}
	dt := units / (c.m.OpRate * c.speedup())
	c.ops += units
	c.seconds += dt
	if c.obs != nil {
		c.obs.ObserveOps(units, dt)
	}
}

// Elapsed returns the virtual seconds so far.
func (c *Clock) Elapsed() float64 { return c.seconds }

// CommSeconds returns the portion of Elapsed charged to communication.
func (c *Clock) CommSeconds() float64 { return c.comm }

// Ops returns total op units charged.
func (c *Clock) Ops() float64 { return c.ops }

// Collectives returns how many collective synchronizations were charged.
func (c *Clock) Collectives() int { return c.colls }

// SyncAllreduce synchronizes the group's clocks at an exchange of
// Allreduce messages of payloadValues float64s each: every clock jumps to
// the groupwide maximum, then pays each message's modeled cost under the
// clock's algorithm (SetAllreduceAlgo). The clocks synchronize once: the
// first message absorbs the wait for the slowest rank, and each further
// one adds its cost with no wait, since the clocks then agree. Every
// message counts as a collective. Call it immediately after the real
// Allreduce so the virtual timeline mirrors the real exchange.
func (c *Clock) SyncAllreduce(comm *mpi.Comm, payloadValues ...int) error {
	if c.oneExch {
		total := 0
		for _, v := range payloadValues {
			total += v
		}
		payloadValues = []int{total}
	}
	p := comm.Size()
	for i, v := range payloadValues {
		cost := c.m.AllreduceCostAlgo(c.algo, p, 8*v)
		switch {
		case i == 0:
			if err := c.sync(comm, cost, v); err != nil {
				return err
			}
		case p == 1:
			c.colls++
		default:
			c.advance(c.seconds, cost, v)
		}
	}
	return nil
}

// SyncBarrier synchronizes at a barrier (empty payload, two tree phases).
func (c *Clock) SyncBarrier(comm *mpi.Comm) error {
	return c.sync(comm, c.m.AllreduceCost(comm.Size(), 0), 0)
}

// SyncWithCost synchronizes the group's clocks at an arbitrary collective
// whose critical-path cost the caller computed (e.g. a gather followed by a
// broadcast in the WtsOnly baseline) and which moves payloadValues
// float64s.
func (c *Clock) SyncWithCost(comm *mpi.Comm, cost float64, payloadValues int) error {
	if cost < 0 || math.IsNaN(cost) {
		cost = 0
	}
	return c.sync(comm, cost, payloadValues)
}

func (c *Clock) sync(comm *mpi.Comm, cost float64, payloadValues int) error {
	if comm.Size() == 1 {
		// A single rank pays no communication cost; skip the meta-exchange.
		c.colls++
		return nil
	}
	// The max-exchange below is simulation machinery, not modeled traffic:
	// hide it from the comm's collective observer so per-collective metrics
	// count exactly the collectives the engine performs.
	prev := comm.Observer()
	if prev != nil {
		comm.SetObserver(nil)
	}
	maxT, err := comm.AllreduceFloat64(mpi.Max, c.seconds)
	if prev != nil {
		comm.SetObserver(prev)
	}
	if err != nil {
		return fmt.Errorf("simnet: clock sync: %w", err)
	}
	c.advance(maxT, cost, payloadValues)
	return nil
}

// advance charges one collective of payloadValues float64s that starts at
// the synchronized time at: the rank waits from its own time to at, then
// pays cost.
func (c *Clock) advance(at, cost float64, payloadValues int) {
	wait := at - c.seconds
	c.seconds = at + cost
	c.comm += wait + cost
	c.colls++
	if c.obs != nil {
		c.obs.ObserveSync(cost, wait, payloadValues)
	}
}

// FormatHMS renders seconds as the paper's h.mm.ss time format.
func FormatHMS(seconds float64) string {
	if seconds < 0 {
		seconds = 0
	}
	total := int(math.Round(seconds))
	h := total / 3600
	m := (total % 3600) / 60
	s := total % 60
	return fmt.Sprintf("%d.%02d.%02d", h, m, s)
}
