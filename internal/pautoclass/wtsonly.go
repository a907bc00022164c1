package pautoclass

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/autoclass"
	"repro/internal/dataset"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// wtsOnlyEngine reproduces the parallelization strategy of the prior MIMD
// AutoClass prototype the paper's §5 compares against (Miller & Guo [7]):
// only update_wts runs over the partitioned data. Each cycle the local
// weight matrices are gathered to rank 0, which — holding a replica of the
// dataset, as that design requires — recomputes every class's parameters
// over all items sequentially and broadcasts them back.
//
// Two costs distinguish it from P-AutoClass, and the ablation benchmark
// shows both: the gathered weight matrix grows with the dataset (n·J values
// per cycle instead of J·stats), and the parameter computation does not
// shrink with P.
//
// It is also a deliberately independent second implementation of the EM
// cycle: the differential tests require wtsOnly and Full to converge to the
// same classification, each checking the other. For the same reason it
// evaluates terms row by row through Term.LogProb and Term.AccumulateStats
// instead of the Full engine's blocked kernels — a second blocked
// implementation would weaken the cross-check. Run on one rank it is the
// paper's sequential per-row algorithm, an E-step into a weights matrix
// and then a statistics pass over it, which the TPROF experiment profiles
// (internal/harness/profile.go).
type wtsOnlyEngine struct {
	comm  *mpi.Comm
	view  *dataset.View
	ds    *dataset.Dataset
	cls   *autoclass.Classification
	cfg   autoclass.Config
	clock *simnet.Clock

	wts         []float64 // local weights, n_local × J
	lastPost    float64
	belowTol    int
	started     bool
	initSeconds float64
	parts       []dataset.Range // block partition, for reassembling gathers

	// Cycle observer, mirroring the Full engine's: nil-safe and purely
	// passive, so the baseline's trajectory is unchanged by it.
	cycleObs autoclass.CycleObserver
}

func newWtsOnlyEngine(comm *mpi.Comm, view *dataset.View, cls *autoclass.Classification,
	opts Options, co autoclass.CycleObserver) (*wtsOnlyEngine, error) {
	if view == nil || cls == nil {
		return nil, errors.New("pautoclass: nil view or classification")
	}
	// The gathered weights are reassembled on the partition the ranks'
	// views were cut from.
	parts, err := partition(view.Dataset(), comm.Size())
	if err != nil {
		return nil, err
	}
	e := &wtsOnlyEngine{
		comm:     comm,
		view:     view,
		ds:       view.Dataset(),
		cls:      cls,
		cfg:      opts.EM,
		clock:    opts.Clock,
		lastPost: math.Inf(-1),
		parts:    parts,
		cycleObs: co,
	}
	return e, nil
}

func (e *wtsOnlyEngine) charge(units float64) {
	if e.clock != nil {
		e.clock.ChargeOps(units)
	}
}

// InitRandom mirrors the Full engine's initialization so that both
// strategies start from the identical crisp assignment.
func (e *wtsOnlyEngine) InitRandom(seed uint64) error {
	t0 := time.Now()
	n := e.view.N()
	j := e.cls.J()
	e.wts = make([]float64, n*j)
	start := e.view.Start()
	// The crisp class weights are counted while the matrix is written:
	// sums of 0/1 weights are exact integers in any order, so they are
	// bitwise the column sums of the matrix.
	wj := make([]float64, j+1)
	for i := 0; i < n; i++ {
		cj := autoclass.InitialClass(seed, start+i, j)
		e.wts[i*j+cj] = 1
		wj[cj]++
	}
	e.charge(float64(n))
	if err := e.reduceWts(wj); err != nil {
		return err
	}
	for cj, cl := range e.cls.Classes {
		cl.W = wj[cj]
	}
	e.cls.UpdateClassWeightsFromW()
	if err := e.parametersOnRoot(); err != nil {
		return err
	}
	e.approximations()
	e.started = true
	e.initSeconds = time.Since(t0).Seconds()
	return nil
}

func (e *wtsOnlyEngine) reduceWts(buf []float64) error {
	if err := e.comm.Allreduce(mpi.Sum, buf); err != nil {
		return fmt.Errorf("pautoclass: wts allreduce: %w", err)
	}
	if e.clock != nil {
		return e.clock.SyncAllreduce(e.comm, len(buf))
	}
	return nil
}

// updateWts is the parallel E-step, identical to P-AutoClass's — including
// the hybrid intra-rank mode: the local rows are sharded over
// cfg.Workers worker goroutines on the same fixed grid, merged in shard
// order, so the baseline stays deterministic and directly comparable.
func (e *wtsOnlyEngine) updateWts() error {
	n := e.view.N()
	j := e.cls.J()
	if len(e.wts) != n*j {
		e.wts = make([]float64, n*j)
	}
	out := make([]float64, j+1)
	shards := autoclass.NumRowShards(n)
	workers := e.cfg.Workers(shards)
	bufs := make([][]float64, shards)
	for s := range bufs {
		bufs[s] = make([]float64, j+1)
	}
	logps := make([][]float64, workers)
	rows := make([][]float64, workers)
	for w := range logps {
		logps[w] = make([]float64, j)
		rows[w] = make([]float64, e.ds.NumAttrs())
	}
	autoclass.ParallelFor(workers, shards, func(worker, s int) {
		lo, hi := autoclass.RowShardRange(s, n)
		acc, logp, row := bufs[s], logps[worker], rows[worker]
		for i := lo; i < hi; i++ {
			e.cls.LogMembership(e.view.RowTo(row, i), logp)
			z := stats.NormalizeLog(logp)
			w := e.wts[i*j : (i+1)*j]
			for cj := 0; cj < j; cj++ {
				w[cj] = logp[cj]
				acc[cj] += logp[cj]
			}
			if !math.IsInf(z, -1) {
				acc[j] += z
			}
		}
	})
	for _, buf := range bufs {
		for k, v := range buf {
			out[k] += v
		}
	}
	a := float64(e.cls.NumAttrColumns())
	e.charge(float64(n) * float64(j) * (a + 1))
	if err := e.reduceWts(out); err != nil {
		return err
	}
	for cj, cl := range e.cls.Classes {
		cl.W = out[cj]
	}
	e.cls.LogLik = out[j]
	return nil
}

// parametersOnRoot is the sequential M-step of the baseline: gather the
// weight matrix, recompute on rank 0 over the full dataset, broadcast the
// parameters.
func (e *wtsOnlyEngine) parametersOnRoot() error {
	j := e.cls.J()
	parts, err := e.comm.Gather(0, e.wts)
	if err != nil {
		return fmt.Errorf("pautoclass: gather wts: %w", err)
	}
	// Parameter vector layout is identical on every rank.
	paramLen := 0
	for _, t := range e.cls.Classes[0].Terms {
		paramLen += len(t.Params())
	}
	paramLen *= j
	buf := make([]float64, paramLen)
	if e.comm.Rank() == 0 {
		// A single part already holds every row in order; otherwise the
		// parts are reassembled into one n×J matrix.
		full := parts[0]
		if len(parts) > 1 {
			full = make([]float64, e.ds.N()*j)
			for r, rg := range e.parts {
				copy(full[rg.Lo*j:rg.Hi*j], parts[r])
			}
		}
		// One row-major pass accumulating every (class, term) statistic,
		// sharded across the hybrid mode's workers (the root's recompute
		// covers ALL rows, so multicore helps it most of all).
		offs := make([]int, 0, 8)
		total := 0
		for _, cl := range e.cls.Classes {
			for _, term := range cl.Terms {
				offs = append(offs, total)
				total += term.StatsSize()
			}
		}
		offs = append(offs, total)
		nAll := e.ds.N()
		shards := autoclass.NumRowShards(nAll)
		bufs := make([][]float64, shards)
		for s := range bufs {
			bufs[s] = make([]float64, total)
		}
		workers := e.cfg.Workers(shards)
		rows := make([][]float64, workers)
		for w := range rows {
			rows[w] = make([]float64, e.ds.NumAttrs())
		}
		autoclass.ParallelFor(workers, shards, func(worker, s int) {
			lo, hi := autoclass.RowShardRange(s, nAll)
			buf := bufs[s]
			for i := lo; i < hi; i++ {
				row := e.ds.RowTo(rows[worker], i)
				ti := 0
				for cj, cl := range e.cls.Classes {
					w := full[i*j+cj]
					for _, term := range cl.Terms {
						term.AccumulateStats(row, w, buf[offs[ti]:offs[ti+1]])
						ti++
					}
				}
			}
		})
		stBuf := make([]float64, total)
		for _, b := range bufs {
			for k, v := range b {
				stBuf[k] += v
			}
		}
		ti := 0
		for _, cl := range e.cls.Classes {
			for _, term := range cl.Terms {
				term.Update(stBuf[offs[ti]:offs[ti+1]])
				ti++
			}
		}
		a := float64(e.cls.NumAttrColumns())
		// The root recomputes over ALL items — the cost that does not
		// shrink with P.
		e.charge(float64(e.ds.N()) * float64(j) * a)
		pos := 0
		for _, cl := range e.cls.Classes {
			for _, term := range cl.Terms {
				pos += copy(buf[pos:], term.Params())
			}
		}
	}
	if err := e.comm.Bcast(0, buf); err != nil {
		return fmt.Errorf("pautoclass: bcast params: %w", err)
	}
	if e.comm.Rank() != 0 {
		pos := 0
		for _, cl := range e.cls.Classes {
			for _, term := range cl.Terms {
				n := len(term.Params())
				if err := term.SetParams(buf[pos : pos+n]); err != nil {
					return fmt.Errorf("pautoclass: set params: %w", err)
				}
				pos += n
			}
		}
	}
	if e.clock != nil {
		m := e.clock.Machine()
		p := e.comm.Size()
		cost := m.GatherCost(p, 8*len(e.wts)) + m.BcastCost(p, 8*len(buf))
		if err := e.clock.SyncWithCost(e.comm, cost, len(e.wts)+len(buf)); err != nil {
			return err
		}
	}
	return nil
}

func (e *wtsOnlyEngine) approximations() {
	e.cls.UpdateClassWeightsFromW()
	e.cls.RefreshPosterior()
	e.charge(float64(e.cls.J()) * float64(e.cls.NumAttrColumns()+4))
}

// prune mirrors the Full engine's class-death rule; decisions use global W
// so every rank prunes identically.
func (e *wtsOnlyEngine) prune() {
	if !e.cfg.PruneClasses || e.cls.J() <= 1 {
		return
	}
	j := e.cls.J()
	keep := make([]int, 0, j)
	for cj, cl := range e.cls.Classes {
		if cl.W >= e.cfg.MinClassWeight {
			keep = append(keep, cj)
		}
	}
	if len(keep) == j {
		return
	}
	if len(keep) == 0 {
		best := 0
		for cj, cl := range e.cls.Classes {
			if cl.W > e.cls.Classes[best].W {
				best = cj
			}
		}
		keep = []int{best}
	}
	newClasses := make([]*autoclass.Class, len(keep))
	for ni, cj := range keep {
		newClasses[ni] = e.cls.Classes[cj]
	}
	n := e.view.N()
	newWts := make([]float64, n*len(keep))
	for i := 0; i < n; i++ {
		for ni, cj := range keep {
			newWts[i*len(keep)+ni] = e.wts[i*j+cj]
		}
	}
	e.cls.Classes = newClasses
	e.wts = newWts
	e.cls.UpdateClassWeightsFromW()
}

// BaseCycle runs one iteration.
func (e *wtsOnlyEngine) BaseCycle() (autoclass.CycleStats, error) {
	var cs autoclass.CycleStats
	if !e.started {
		return cs, errors.New("pautoclass: BaseCycle before InitRandom")
	}
	t0 := time.Now()
	if err := e.updateWts(); err != nil {
		return cs, err
	}
	cs.WtsSeconds = time.Since(t0).Seconds()
	t1 := time.Now()
	if err := e.parametersOnRoot(); err != nil {
		return cs, err
	}
	cs.ParamsSeconds = time.Since(t1).Seconds()
	t2 := time.Now()
	e.approximations()
	cs.ApproxSeconds = time.Since(t2).Seconds()
	e.prune()
	e.cls.Cycles++
	cs.LogPost = e.cls.LogPost
	return cs, nil
}

// Run executes cycles until convergence or the cap.
func (e *wtsOnlyEngine) Run() (autoclass.EMResult, error) {
	var res autoclass.EMResult
	if !e.started {
		return res, errors.New("pautoclass: Run before InitRandom")
	}
	res.InitSeconds = e.initSeconds
	for cycle := 0; cycle < e.cfg.MaxCycles; cycle++ {
		cs, err := e.BaseCycle()
		if err != nil {
			return res, err
		}
		res.Cycles++
		res.WtsSeconds += cs.WtsSeconds
		res.ParamsSeconds += cs.ParamsSeconds
		res.ApproxSeconds += cs.ApproxSeconds
		res.History = append(res.History, cs.LogPost)
		if e.cycleObs != nil {
			e.cycleObs.ObserveCycle(autoclass.CycleInfo{
				Cycle:   cycle,
				J:       e.cls.J(),
				LogPost: cs.LogPost,
				Delta:   autoclass.CycleDelta(cs.LogPost, e.lastPost),
				Stats:   cs,
			})
		}
		if stats.RelDiff(cs.LogPost, e.lastPost) < e.cfg.RelDelta {
			e.belowTol++
		} else {
			e.belowTol = 0
		}
		e.lastPost = cs.LogPost
		if e.belowTol >= e.cfg.ConvergeWindow {
			res.Converged = true
			break
		}
	}
	e.cls.Converged = res.Converged
	return res, nil
}
