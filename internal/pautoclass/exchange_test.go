package pautoclass

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/autoclass"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// paperMessagesReducer is the reference the engine's one exchange is
// compared against, as refCycle is for the kernels: it sends the paper's
// messages for real — one Allreduce of the class-weight segment, then one
// per (class, term) statistics segment, each with its own clock sync. It
// splits the buffer by cls's terms, not by lengths the engine names.
type paperMessagesReducer struct {
	comm  *mpi.Comm
	clock *simnet.Clock
	cls   *autoclass.Classification
}

func (r *paperMessagesReducer) ReduceInPlace(buf []float64) error {
	stats := 0
	for _, cl := range r.cls.Classes {
		for _, term := range cl.Terms {
			stats += term.StatsSize()
		}
	}
	// The class-weight segment is what the statistics leave: {n_j} at
	// initialization, {w_j, logL} in a cycle.
	off := len(buf) - stats
	if err := r.send(buf[:off]); err != nil {
		return err
	}
	for _, cl := range r.cls.Classes {
		for _, term := range cl.Terms {
			n := term.StatsSize()
			if err := r.send(buf[off : off+n]); err != nil {
				return err
			}
			off += n
		}
	}
	return nil
}

func (r *paperMessagesReducer) send(seg []float64) error {
	if err := r.comm.Allreduce(mpi.Sum, seg); err != nil {
		return err
	}
	return r.clock.SyncAllreduce(r.comm, len(seg))
}

// allreduceCounter counts a rank's real Allreduce calls.
type allreduceCounter int

func (c *allreduceCounter) ObserveCollective(name string, _, _ int) {
	if name == "allreduce" {
		*c++
	}
}

// exchangeRun is what one rank ends with after InitRandom and the cycles.
type exchangeRun struct {
	cls                  []byte // checkpoint: every term's parameters, W, LogLik, LogPost
	logLik, logPost      float64
	elapsed, commSeconds float64
	collectives          int
	messages             int // modeled messages after the priors
	allreduces           int // real Allreduce calls after the priors
}

// runExchange drives the engine per rank, as the scaleup experiment does:
// PartitionView, ParallelPriors, NewEngine, InitRandom, then the cycles,
// with a Meiko clock that charges algo. reference selects the paper's
// messages for real instead of the engine's one exchange.
func runExchange(t *testing.T, ds *dataset.Dataset, spec model.Spec, p int, algo simnet.AllreduceAlgo,
	cfg autoclass.Config, cycles int, reference bool) []exchangeRun {
	t.Helper()
	out := make([]exchangeRun, p)
	err := mpi.Run(p, func(c *mpi.Comm) error {
		clk := simnet.MustNewClock(simnet.MeikoCS2())
		clk.SetAllreduceAlgo(algo)
		view, err := PartitionView(c, ds)
		if err != nil {
			return err
		}
		pr, err := ParallelPriors(c, view, &Options{Clock: clk})
		if err != nil {
			return err
		}
		cls, err := autoclass.NewClassification(ds, spec, pr, 4)
		if err != nil {
			return err
		}
		var red autoclass.Reducer = &allreduceReducer{comm: c, clock: clk}
		if reference {
			red = &paperMessagesReducer{comm: c, clock: clk, cls: cls}
		}
		eng, err := autoclass.NewEngine(view, cls, cfg, red, clk)
		if err != nil {
			return err
		}
		var calls allreduceCounter
		c.SetObserver(&calls)
		priors := clk.Collectives()
		if err := eng.InitRandom(11); err != nil {
			return err
		}
		for i := 0; i < cycles; i++ {
			if _, err := eng.BaseCycle(); err != nil {
				return err
			}
		}
		var buf bytes.Buffer
		if err := (&autoclass.Checkpoint{Classification: cls}).Save(&buf); err != nil {
			return err
		}
		r := &out[c.Rank()]
		r.cls, r.logLik, r.logPost = buf.Bytes(), cls.LogLik, cls.LogPost
		r.elapsed, r.commSeconds, r.collectives = clk.Elapsed(), clk.CommSeconds(), clk.Collectives()
		r.messages, r.allreduces = r.collectives-priors, int(calls)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOneExchangeMatchesPaperMessages: the engine's one exchange per cycle
// and per initialization leaves every rank with the float64s the paper's
// messages give — every term's parameters, W, LogLik and LogPost — and a
// Meiko clock with the same elapsed, communication seconds and collective
// count, while the rank sends one Allreduce per exchange. It covers every
// term kind and missing-value pattern, 2–4 ranks under every algorithm the
// clock charges (the wire always runs reduce+broadcast), and one and four
// workers.
func TestOneExchangeMatchesPaperMessages(t *testing.T) {
	const cycles = 8
	for _, sc := range kernelScenarios(t, 2500) {
		for _, p := range []int{2, 3, 4} {
			for _, algo := range []simnet.AllreduceAlgo{simnet.ReduceBcast, simnet.RecursiveDoubling, simnet.Ring} {
				for _, par := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/P=%d/%v/par=%d", sc.name, p, algo, par), func(t *testing.T) {
						cfg := autoclass.DefaultConfig()
						cfg.Parallelism = par
						got := runExchange(t, sc.ds, sc.spec, p, algo, cfg, cycles, false)
						want := runExchange(t, sc.ds, sc.spec, p, algo, cfg, cycles, true)
						for r := range got {
							g, x := got[r], want[r]
							if math.Float64bits(g.logPost) != math.Float64bits(x.logPost) ||
								math.Float64bits(g.logLik) != math.Float64bits(x.logLik) {
								t.Fatalf("rank %d: LogPost %v LogLik %v, paper's messages %v %v", r, g.logPost, g.logLik, x.logPost, x.logLik)
							}
							if !bytes.Equal(g.cls, x.cls) {
								t.Fatalf("rank %d: classification differs from the paper's messages", r)
							}
							if math.Float64bits(g.elapsed) != math.Float64bits(x.elapsed) ||
								math.Float64bits(g.commSeconds) != math.Float64bits(x.commSeconds) ||
								g.collectives != x.collectives {
								t.Fatalf("rank %d: clock elapsed %v comm %v collectives %d, paper's messages %v %v %d",
									r, g.elapsed, g.commSeconds, g.collectives, x.elapsed, x.commSeconds, x.collectives)
							}
							if g.allreduces != 1+cycles {
								t.Fatalf("rank %d: %d Allreduce calls for %d exchanges", r, g.allreduces, 1+cycles)
							}
							if x.allreduces != x.messages || x.messages <= 2*(1+cycles) {
								t.Fatalf("rank %d: the reference sent %d Allreduce calls for %d modeled messages", r, x.allreduces, x.messages)
							}
						}
					})
				}
			}
		}
	}
}

// TestOneExchangeTraceSpansCarryMessagePayloads: under the Meiko clock
// with obs.Rank installed, a cycle's one exchange draws one modeled
// comm:allreduce span per paper message, and each span carries that
// message's own length: {w_j, logL} first, then every (class, term)
// statistics segment in order — the same on both ranks, whatever each rank
// sent in the real Allreduce.
func TestOneExchangeTraceSpansCarryMessagePayloads(t *testing.T) {
	const p, j = 2, 4
	ds := paperDS(t, 2000)
	spec := model.DefaultSpec(ds)
	run := obs.NewRun(p)
	marks := make([]int, p)
	var want []int
	err := mpi.Run(p, func(c *mpi.Comm) error {
		clk := simnet.MustNewClock(simnet.MeikoCS2())
		rk := run.Rank(c.Rank())
		c.SetObserver(rk)
		rk.BindClock(clk)
		view, err := PartitionView(c, ds)
		if err != nil {
			return err
		}
		pr, err := ParallelPriors(c, view, &Options{Clock: clk})
		if err != nil {
			return err
		}
		cls, err := autoclass.NewClassification(ds, spec, pr, j)
		if err != nil {
			return err
		}
		eng, err := autoclass.NewEngine(view, cls, autoclass.DefaultConfig(), &allreduceReducer{comm: c, clock: clk}, clk)
		if err != nil {
			return err
		}
		if err := eng.InitRandom(11); err != nil {
			return err
		}
		marks[c.Rank()] = len(run.Tracer().Events(c.Rank()))
		if c.Rank() == 0 {
			want = []int{j + 1}
			for _, cl := range cls.Classes {
				for _, term := range cl.Terms {
					want = append(want, term.StatsSize())
				}
			}
		}
		_, err = eng.BaseCycle()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p; r++ {
		var got []int
		for _, ev := range run.Tracer().Events(r)[marks[r]:] {
			if ev.Name != "comm:allreduce" {
				continue
			}
			for _, a := range ev.Args {
				if a.Key == "payload_values" {
					got = append(got, int(a.Val))
				}
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("rank %d: the cycle's comm:allreduce spans carry payloads %v, the paper's messages are %v", r, got, want)
		}
	}
}
