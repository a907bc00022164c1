package pautoclass

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/autoclass"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mpi"
)

// Hybrid variant × rank search: the paper's SPMD design puts every rank of
// the group inside ONE classification try at a time — all of P-AutoClass's
// parallelism lives below the BIG_LOOP. The hybrid mode splits a rank
// budget the other way as well: Procs ranks become Variants independent
// communicator groups of Procs/Variants ranks each, every group running
// whole tries pulled from the shared variant scheduler. Group 0's rank 0
// claims nothing special — each group's rank 0 claims the next variant and
// broadcasts its schedule index to its group, so all ranks of a group run
// the identical variant (the SPMD contract).
//
// Determinism: variants commit through the autoclass scheduler in schedule
// order, so the hybrid result at V groups × R ranks is bitwise identical to
// Search over a single group of R ranks — for any V. (Across different R
// the parallel search itself is not bitwise comparable to the sequential
// one; see the acceptance tests.)

// hybridDone is the broadcast sentinel a group's rank 0 sends when the
// scheduler has no more variants.
const hybridDone = math.MaxUint64

// HybridConfig sizes the variant × rank split of a hybrid search.
type HybridConfig struct {
	// Procs is the total rank budget.
	Procs int
	// Variants is the number of concurrent variant groups V; the budget is
	// split into V communicator groups of Procs/V ranks each, so Procs
	// must be divisible by V. Values < 1 mean 1 (plain Search).
	Variants int
	// Run is the per-group rank world configuration (transport, deadline,
	// injected faults).
	Run mpi.RunConfig
	// SearchObs, when non-nil, receives claim and commit events from the
	// shared variant scheduler. Claims arrive concurrently from the group
	// leaders, so the observer must be safe for concurrent use; per-cycle
	// TryCycle events are not emitted on the hybrid path.
	SearchObs autoclass.SearchObserver
}

func (hc HybridConfig) groups() (v, r int, err error) {
	if hc.Procs < 1 {
		return 0, 0, errors.New("pautoclass: hybrid Procs < 1")
	}
	v = hc.Variants
	if v < 1 {
		v = 1
	}
	if v > hc.Procs {
		return 0, 0, fmt.Errorf("pautoclass: %d variant groups exceed the %d-rank budget", v, hc.Procs)
	}
	if hc.Procs%v != 0 {
		return 0, 0, fmt.Errorf("pautoclass: rank budget %d not divisible by %d variant groups", hc.Procs, v)
	}
	return v, hc.Procs / v, nil
}

// SearchHybrid runs the BIG_LOOP as Variants concurrent variant groups of
// Procs/Variants ranks each over one shared in-memory dataset. optsFor
// returns the Options for a given (group, rankInGroup), whose EM is
// replaced by cfg.EM; it must not carry a simnet Clock when Variants > 1 —
// the virtual timeline is a serial construct and cannot span concurrent
// groups. Basin early termination (SearchConfig.BasinEarlyStop) is not
// supported on the SPMD engine and is ignored here.
func SearchHybrid(ds *dataset.Dataset, spec model.Spec, cfg autoclass.SearchConfig,
	hc HybridConfig, optsFor func(group, rank int) Options) (*autoclass.SearchResult, error) {
	if ds.N() == 0 {
		return nil, errors.New("pautoclass: empty dataset")
	}
	v, r, err := hc.groups()
	if err != nil {
		return nil, err
	}
	sched, err := autoclass.NewSearchScheduler(cfg, v)
	if err != nil {
		return nil, err
	}
	sched.SetObserver(hc.SearchObs)
	variants := cfg.Variants()
	groupErrs := make([]error, v)
	var wg sync.WaitGroup
	for g := 0; g < v; g++ {
		wg.Add(1)
		go func(group int) {
			defer wg.Done()
			body := func(comm *mpi.Comm) error {
				opts := Options{Strategy: Full}
				if optsFor != nil {
					opts = optsFor(group, comm.Rank())
				}
				opts.EM = cfg.EM
				if opts.Clock != nil && v > 1 {
					return errors.New("pautoclass: hybrid search cannot charge a virtual clock across concurrent groups")
				}
				view, err := PartitionView(comm, ds)
				if err != nil {
					return err
				}
				opts.install(comm)
				pr, err := ParallelPriors(comm, view, &opts)
				if err != nil {
					return err
				}
				t := newTrial(comm, view, pr, spec, opts)
				for {
					// The group's rank 0 claims the next variant; the
					// broadcast index keeps every rank of the group on the
					// identical try.
					var claim uint64 = hybridDone
					if comm.Rank() == 0 {
						if next, ok := sched.Next(); ok {
							claim = uint64(next.Index)
						}
					}
					claim, err := comm.BcastUint64(0, claim)
					if err != nil {
						return err
					}
					if claim == hybridDone {
						return nil
					}
					vr := variants[claim]
					cls, em, runErr := t.run(vr)
					if comm.Rank() == 0 {
						sched.Commit(vr, cls, em, runErr)
					}
					// On a trial error every rank keeps looping: the commit
					// stops the scheduler, so the next claim broadcasts the
					// done sentinel and the group exits together. The error
					// itself surfaces from the scheduler in schedule order.
				}
			}
			groupErrs[group] = mpi.RunWith(r, hc.Run, body)
		}(g)
	}
	wg.Wait()
	for g, err := range groupErrs {
		if err != nil {
			return nil, fmt.Errorf("pautoclass: hybrid group %d: %w", g, err)
		}
	}
	return sched.Result()
}
