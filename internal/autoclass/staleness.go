package autoclass

import (
	"fmt"
	"time"

	"repro/internal/stats"
)

// Bounded-staleness EM (Config.SyncEvery > 1): instead of one global
// exchange per cycle — the paper's Fig. 8 saturation wall — each rank runs
// up to SyncEvery local cycles against the global model captured at the
// last synchronization point, then folds its accumulated local deltas back
// into that model at the next Allreduce (the C4-style corrective merge:
// local work is merged into the global state, never overwrites it).
//
// Between sync points a rank estimates the global model as
//
//	working = (1 − frac)·synced + local
//
// where frac = n_local / N is the rank's proportional share: the synced
// baseline minus this rank's expected stale contribution, plus its fresh
// local one. At a sync point the merge reduces the per-rank deltas
//
//	delta_r = local_r − frac_r·synced,   Σ_r frac_r = 1
//
// so the new global model is synced + Σ_r delta_r = Σ_r local_r — exactly
// the quantity the synchronous path reduces, reached with 1/L of the
// collectives. All baselines are globally reduced values (identical on
// every rank), which keeps the SPMD invariant at every sync point: group
// decisions (pruning, convergence, checkpointing) happen only there, on
// identical inputs.
//
// The staleness bound: on a cycle the schedule would leave local, every
// rank measures the relative drift of its working log-likelihood against
// the synced one and the group Allreduces a force-sync flag — any rank
// exceeding SyncDriftTol forces the merge for all ranks, so the schedule
// decision itself stays group-consistent (no rank can block on a barrier
// the others skipped). The flag exchange costs one 1-value collective per
// stale cycle, against the J+1-value weights exchange and the full
// statistics exchange it replaces.
//
// The final scheduled cycle (MaxCycles) always synchronizes, so a finished
// try holds the identical globally merged classification on every rank —
// the replicated search drivers' duplicate elimination and best-selection
// then need no further coordination, exactly as in the synchronous mode.

// staleActive reports whether this engine runs the bounded-staleness
// schedule: a parallel engine (the sequential engine's local values are
// already global, so there is nothing to relax) with SyncEvery > 1.
func (e *Engine) staleActive() bool {
	return e.reducer != nil && e.cfg.EffectiveSyncEvery() > 1
}

// localFrac is this rank's proportional share of the global dataset.
func (e *Engine) localFrac() float64 {
	if e.cls.N <= 0 {
		return 1
	}
	return float64(e.view.N()) / float64(e.cls.N)
}

// staleScratch returns a reusable scratch buffer of length n.
func (e *Engine) staleScratch(n int) []float64 {
	if cap(e.staleBuf) < n {
		e.staleBuf = make([]float64, n)
	}
	return e.staleBuf[:n]
}

// staleCycle is BaseCycle under the bounded-staleness schedule. The first
// cycle after InitRandom or Restore-without-baseline bootstraps with a
// plain synchronous exchange (numerically identical to the synchronous
// cycle) to establish the global baseline.
func (e *Engine) staleCycle() (CycleStats, error) {
	var cs CycleStats
	t0 := time.Now()
	combined, offs := e.localPass()
	j := e.cls.J()
	out, buf := combined[:j+1], combined[j+1:]
	frac := e.localFrac()
	bootstrap := e.syncStats == nil
	// Group-consistent schedule: every rank computes the same decision from
	// the same cycle counters. The last cycle of the budget always syncs so
	// the try ends on a globally merged model.
	syncNow := bootstrap ||
		e.sinceSync+1 >= e.cfg.EffectiveSyncEvery() ||
		e.cls.Cycles+1 >= e.cfg.MaxCycles
	if !syncNow {
		// Staleness bound: measure this rank's drift and agree on a forced
		// sync with a 1-value flag reduction (any rank over tolerance
		// forces everyone, so no rank waits at a barrier alone).
		cs.Drift = stats.RelDiff((1-frac)*e.syncWts[j]+out[j], e.syncWts[j])
		flag := 0.0
		if e.cfg.SyncDriftTol > 0 && cs.Drift > e.cfg.SyncDriftTol {
			flag = 1
		}
		e.pollBuf[0] = flag
		v, err := e.reduce(e.pollBuf[:])
		if err != nil {
			return cs, fmt.Errorf("autoclass: drift agreement: %w", err)
		}
		if v > 0 {
			cs.ReducedValues += v
			cs.Reductions++
		}
		syncNow = e.pollBuf[0] > 0
	}

	if syncNow {
		if bootstrap {
			v, err := e.reduce(out)
			if err != nil {
				return cs, fmt.Errorf("autoclass: reduce wts: %w", err)
			}
			if v > 0 {
				cs.ReducedValues += v
				cs.Reductions++
			}
		} else {
			// Corrective merge of the weights and log-likelihood: reduce
			// the per-rank deltas against the synced baseline and fold the
			// sum back in.
			d := e.staleScratch(j + 1)
			for i := 0; i <= j; i++ {
				d[i] = out[i] - frac*e.syncWts[i]
			}
			v, err := e.reduce(d)
			if err != nil {
				return cs, fmt.Errorf("autoclass: merge wts: %w", err)
			}
			if v > 0 {
				cs.ReducedValues += v
				cs.Reductions++
			}
			for i := 0; i <= j; i++ {
				out[i] = e.syncWts[i] + d[i]
			}
		}
		for cj, cl := range e.cls.Classes {
			cl.W = out[cj]
		}
		e.cls.LogLik = out[j]
		cs.WtsSeconds = time.Since(t0).Seconds()

		t1 := time.Now()
		rv, rn, err := e.mergeParameters(bootstrap, frac, buf, offs)
		if err != nil {
			return cs, err
		}
		cs.ReducedValues += rv
		cs.Reductions += rn
		cs.ParamsSeconds = time.Since(t1).Seconds()

		// Capture the new global baseline (syncStats was captured inside
		// mergeParameters, where the reduced buffer is live).
		if cap(e.syncWts) < j+1 {
			e.syncWts = make([]float64, j+1)
		}
		e.syncWts = e.syncWts[:j+1]
		copy(e.syncWts, out[:j+1])
		e.sinceSync = 0
		cs.Synced = true
	} else {
		// Stale local cycle: drive the working model — the synced baseline
		// minus this rank's expected stale share, plus its fresh local
		// contribution. No global exchange beyond the 1-value flag above.
		for cj, cl := range e.cls.Classes {
			cl.W = (1-frac)*e.syncWts[cj] + out[cj]
		}
		e.cls.LogLik = (1-frac)*e.syncWts[j] + out[j]
		cs.WtsSeconds = time.Since(t0).Seconds()

		t1 := time.Now()
		if err := e.localParameters(frac, buf, offs); err != nil {
			return cs, err
		}
		cs.ParamsSeconds = time.Since(t1).Seconds()
		e.sinceSync++
	}

	t2 := time.Now()
	updateApproximations(e.cls, e.charger)
	cs.ApproxSeconds = time.Since(t2).Seconds()

	if cs.Synced {
		// Class death is a group decision: it happens only at sync points,
		// where W is globally merged and identical on every rank. The sync
		// baselines are compacted with the same keep mapping.
		if keep := pruneDeadClasses(e.cls, e.cfg); keep != nil {
			e.compactBaselines(keep, j)
		}
	}
	e.cls.Cycles++
	cs.LogPost = e.cls.LogPost
	cs.SinceSync = e.sinceSync
	return cs, nil
}

// mergeParameters is the sync-point M-step: merge the local sufficient
// statistics buf into the global model (plain reduce on the bootstrap
// cycle, corrective delta fold afterwards) honoring the configured
// exchange granularity, re-estimate every term from the merged
// statistics, and capture them as the new baseline.
func (e *Engine) mergeParameters(bootstrap bool, frac float64, buf []float64, offs []int) (reducedValues, reductions int, err error) {
	n := e.view.N()
	j := e.cls.J()
	ex := buf // the buffer that travels through the Reducer
	if !bootstrap {
		if len(e.syncStats) != len(buf) {
			return 0, 0, fmt.Errorf("autoclass: sync baseline holds %d statistics, model needs %d", len(e.syncStats), len(buf))
		}
		ex = e.staleScratch(len(buf))
		for i := range buf {
			ex[i] = buf[i] - frac*e.syncStats[i]
		}
	}
	switch e.cfg.Granularity {
	case PerTerm:
		for ti := 0; ti < len(offs)-1; ti++ {
			v, err := e.reduce(ex[offs[ti]:offs[ti+1]])
			if err != nil {
				return reducedValues, reductions, fmt.Errorf("autoclass: merge term %d: %w", ti, err)
			}
			if v > 0 {
				reducedValues += v
				reductions++
			}
		}
	case Packed:
		v, err := e.reduce(ex)
		if err != nil {
			return reducedValues, reductions, fmt.Errorf("autoclass: packed merge: %w", err)
		}
		if v > 0 {
			reducedValues += v
			reductions++
		}
	default:
		return 0, 0, fmt.Errorf("autoclass: unknown granularity %d", int(e.cfg.Granularity))
	}
	if !bootstrap {
		for i := range buf {
			buf[i] = e.syncStats[i] + ex[i]
		}
	}
	ti := 0
	for _, cl := range e.cls.Classes {
		for _, term := range cl.Terms {
			term.Update(buf[offs[ti]:offs[ti+1]])
			ti++
		}
	}
	e.syncStats = append(e.syncStats[:0], buf...)
	a := float64(e.cls.NumAttrColumns())
	e.charge(float64(n) * float64(j) * a)
	return reducedValues, reductions, nil
}

// localParameters is the stale-cycle M-step: re-estimate every term from
// the working statistics (1 − frac)·synced + local buf, with no exchange.
func (e *Engine) localParameters(frac float64, buf []float64, offs []int) error {
	n := e.view.N()
	j := e.cls.J()
	if len(e.syncStats) != len(buf) {
		return fmt.Errorf("autoclass: sync baseline holds %d statistics, model needs %d", len(e.syncStats), len(buf))
	}
	work := e.staleScratch(len(buf))
	for i := range buf {
		work[i] = (1-frac)*e.syncStats[i] + buf[i]
	}
	ti := 0
	for _, cl := range e.cls.Classes {
		for _, term := range cl.Terms {
			term.Update(work[offs[ti]:offs[ti+1]])
			ti++
		}
	}
	a := float64(e.cls.NumAttrColumns())
	e.charge(float64(n) * float64(j) * a)
	return nil
}

// compactBaselines applies a prune's keep mapping to the sync baselines.
// jOld is the class count before the prune; e.offs still holds the
// pre-prune (class, term) offsets.
func (e *Engine) compactBaselines(keep []int, jOld int) {
	newWts := make([]float64, len(keep)+1)
	for ni, cj := range keep {
		newWts[ni] = e.syncWts[cj]
	}
	newWts[len(keep)] = e.syncWts[jOld]
	e.syncWts = newWts

	// Every class carries the same term layout (one term per attribute
	// block of the shared model spec), so the per-class statistics span is
	// uniform across the offset table.
	termsPer := (len(e.offs) - 1) / jOld
	var newStats []float64
	for _, cj := range keep {
		lo := e.offs[cj*termsPer]
		hi := e.offs[(cj+1)*termsPer]
		newStats = append(newStats, e.syncStats[lo:hi]...)
	}
	e.syncStats = newStats
}
