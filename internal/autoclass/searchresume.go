package autoclass

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/internal/atomicfile"
	"repro/internal/dataset"
)

// AutoClass C checkpoints its search so that multi-day classification runs
// survive interruption (the paper's motivating runs took 130–400 hours).
// This file provides the BIG_LOOP-level equivalent: the scheduler persists
// each committed try and the best classification so far; an interrupted
// search re-launched with the same configuration skips the completed tries
// — the try seeds are derived deterministically, so the resumed search is
// indistinguishable from an uninterrupted one. Tries commit (and therefore
// persist) in schedule order even under variant parallelism, so the state
// file is always a consistent prefix of the sequential schedule.
//
// One state format serves both engines. The sequential engine (Search)
// writes it at try boundaries; the SPMD engine (pautoclass.Search) also
// writes a mid-try snapshot (in_try) every few cycles from rank 0. The file
// records the row count n and the engine that wrote it, and a resume under
// another dataset size or the other engine is refused: the two engines
// derive priors differently (one summary vs. Allreduced partial sums), so
// their trajectories differ in the last bits and a mixed search would be
// neither. For the same reason an SPMD file records its rank count, and a
// resume under another rank count is refused: the order in which the ranks'
// partial sums reduce moves the last bits of the priors, and so of every
// score.

// SearchFingerprint pins every configuration knob that shapes a search
// trajectory. Resuming a state file recorded under a different fingerprint
// would silently mix tries from two incompatible searches, so the state
// file embeds it and a resume refuses mismatches. Worker counts
// (SearchParallelism, EM.Parallelism) are deliberately excluded: both are
// bitwise-invariant — every pass folds the same fixed shard grid on any
// number of workers, 0 included (see parallel.go), and tries commit in
// schedule order (see searchsched.go) — so a search may be resumed under
// a different degree of parallelism.
type SearchFingerprint struct {
	DupScoreTol    float64     `json:"dup_score_tol"`
	MaxCycles      int         `json:"max_cycles"`
	RelDelta       float64     `json:"rel_delta"`
	ConvergeWindow int         `json:"converge_window"`
	MinClassWeight float64     `json:"min_class_weight"`
	PruneClasses   bool        `json:"prune_classes"`
	Granularity    Granularity `json:"granularity"`
	// Kernels is 0 in every file written now: every search runs the
	// blocked kernels. A file holding 1 came from a per-row search mode
	// that no longer exists and followed another trajectory, so a resume
	// refuses it by name.
	Kernels int `json:"kernels"`
	// SyncEvery is 0 (absent) in every file written now: every parallel
	// cycle runs the synchronous exchange. A file holding L > 1 came from
	// a bounded-staleness schedule that no longer exists and followed
	// another trajectory, so a resume refuses it by name.
	SyncEvery int `json:"sync_every,omitempty"`
}

// Fingerprint extracts the trajectory-shaping knobs of a configuration.
func (c SearchConfig) Fingerprint() SearchFingerprint {
	return SearchFingerprint{
		DupScoreTol:    c.DupScoreTol,
		MaxCycles:      c.EM.MaxCycles,
		RelDelta:       c.EM.RelDelta,
		ConvergeWindow: c.EM.ConvergeWindow,
		MinClassWeight: c.EM.MinClassWeight,
		PruneClasses:   c.EM.PruneClasses,
		Granularity:    c.EM.Granularity,
	}
}

// Diff describes every field on which the two fingerprints disagree, for
// mismatch errors that name the offending knob.
func (f SearchFingerprint) Diff(g SearchFingerprint) []string {
	var d []string
	if f.DupScoreTol != g.DupScoreTol {
		d = append(d, fmt.Sprintf("DupScoreTol %v vs %v", f.DupScoreTol, g.DupScoreTol))
	}
	if f.MaxCycles != g.MaxCycles {
		d = append(d, fmt.Sprintf("MaxCycles %d vs %d", f.MaxCycles, g.MaxCycles))
	}
	if f.RelDelta != g.RelDelta {
		d = append(d, fmt.Sprintf("RelDelta %v vs %v", f.RelDelta, g.RelDelta))
	}
	if f.ConvergeWindow != g.ConvergeWindow {
		d = append(d, fmt.Sprintf("ConvergeWindow %d vs %d", f.ConvergeWindow, g.ConvergeWindow))
	}
	if f.MinClassWeight != g.MinClassWeight {
		d = append(d, fmt.Sprintf("MinClassWeight %v vs %v", f.MinClassWeight, g.MinClassWeight))
	}
	if f.PruneClasses != g.PruneClasses {
		d = append(d, fmt.Sprintf("PruneClasses %v vs %v", f.PruneClasses, g.PruneClasses))
	}
	if f.Granularity != g.Granularity {
		d = append(d, fmt.Sprintf("Granularity %v vs %v", f.Granularity, g.Granularity))
	}
	if f.Kernels != g.Kernels {
		d = append(d, fmt.Sprintf("Kernels %d vs %d", f.Kernels, g.Kernels))
	}
	if f.SyncEvery != g.SyncEvery {
		d = append(d, fmt.Sprintf("SyncEvery %d vs %d", f.SyncEvery, g.SyncEvery))
	}
	return d
}

// SearchEngine names the engine family that wrote a state file.
type SearchEngine string

const (
	// EngineSequential is the one-process engine of Search.
	EngineSequential SearchEngine = "sequential"
	// EngineSPMD is the replicated-rank engine of pautoclass.Search.
	EngineSPMD SearchEngine = "spmd"
)

// stateFileV1 is the serialized search progress.
//
// Files written before the engine was recorded carry no "engine" field. A
// file without it is read by its shape: the SPMD engine always recorded n,
// the sequential engine never did, so n > 0 marks an SPMD file, and a file
// with neither field is a sequential one whose row count cannot be checked.
// Likewise an SPMD file written before the rank count was recorded carries
// no "ranks" field, and its rank count cannot be checked.
type stateFileV1 struct {
	Version int `json:"version"`
	// Engine, N and Ranks identify the engine, dataset size and SPMD rank
	// count (zero for the sequential engine) that wrote the file;
	// StartJList, Tries, Seed and Fingerprint the search.
	Engine      SearchEngine      `json:"engine,omitempty"`
	N           int               `json:"n,omitempty"`
	Ranks       int               `json:"ranks,omitempty"`
	StartJList  []int             `json:"start_j_list"`
	Tries       int               `json:"tries"`
	Seed        uint64            `json:"seed"`
	Fingerprint SearchFingerprint `json:"fingerprint"`
	// Completed tries in schedule order.
	Completed []TryResult `json:"completed"`
	// Best is the best-so-far classification (Checkpoint JSON), empty
	// until a non-duplicate try completes; BestTry is its try record.
	Best    json.RawMessage `json:"best,omitempty"`
	BestTry TryResult       `json:"best_try"`
	// Totals accumulates phase statistics over completed tries.
	Totals EMResult `json:"totals"`
	// InTry is a mid-try snapshot (Checkpoint JSON with a SearchPoint) of
	// try len(Completed), written only by the SPMD engine: a sequential
	// search with several variant workers has several tries in flight.
	InTry json.RawMessage `json:"in_try,omitempty"`
}

// check refuses a state file that another search wrote — a different
// engine, dataset size, rank count, schedule or trajectory-shaping knob —
// with an error naming the field.
func (f *stateFileV1) check(cfg SearchConfig, n, ranks int, engine SearchEngine) error {
	written := f.Engine
	if written == "" {
		written = EngineSequential
		if f.N > 0 {
			written = EngineSPMD
		}
	}
	if written != engine {
		return fmt.Errorf("engine %s vs %s", written, engine)
	}
	if f.N != n && (f.Engine != "" || f.N != 0) {
		return fmt.Errorf("n %d vs %d", f.N, n)
	}
	if f.Ranks != ranks && f.Ranks != 0 {
		return fmt.Errorf("ranks %d vs %d", f.Ranks, ranks)
	}
	if f.Tries != cfg.Tries {
		return fmt.Errorf("Tries %d vs %d", f.Tries, cfg.Tries)
	}
	if f.Seed != cfg.Seed {
		return fmt.Errorf("Seed %d vs %d", f.Seed, cfg.Seed)
	}
	if len(f.StartJList) != len(cfg.StartJList) {
		return fmt.Errorf("StartJList %v vs %v", f.StartJList, cfg.StartJList)
	}
	for i, j := range f.StartJList {
		if cfg.StartJList[i] != j {
			return fmt.Errorf("StartJList %v vs %v", f.StartJList, cfg.StartJList)
		}
	}
	if d := f.Fingerprint.Diff(cfg.Fingerprint()); len(d) > 0 {
		return errors.New(strings.Join(d, "; "))
	}
	if len(f.InTry) > 0 && engine != EngineSPMD {
		return errors.New("in_try snapshot in a sequential state")
	}
	return nil
}

// SearchState is the progress of a resumable search, restored by
// SearchScheduler.Run and rewritten after every commit. Path is the file it
// persists to; an empty Path keeps it in memory (the SPMD ranks other than
// 0, whose rank 0 writes for the group).
type SearchState struct {
	Path string

	file  stateFileV1
	best  *Classification // decoded file.Best
	inTry *Checkpoint     // decoded file.InTry
}

// LoadSearchState parses the bytes of a state file (empty: a fresh search)
// for a search of cfg over ds by the given engine — on ranks ranks for the
// SPMD engine, zero for the sequential one. It refuses a file another
// search wrote and decodes the best classification and the mid-try
// snapshot against ds.
func LoadSearchState(raw []byte, cfg SearchConfig, ds *dataset.Dataset, engine SearchEngine, ranks int) (*SearchState, error) {
	st := &SearchState{file: stateFileV1{
		Version:     1,
		StartJList:  append([]int(nil), cfg.StartJList...),
		Tries:       cfg.Tries,
		Seed:        cfg.Seed,
		Fingerprint: cfg.Fingerprint(),
	}}
	if len(raw) > 0 {
		var f stateFileV1
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("corrupt search state: %w", err)
		}
		if f.Version != 1 {
			return nil, fmt.Errorf("unsupported search state version %d", f.Version)
		}
		if err := f.check(cfg, ds.N(), ranks, engine); err != nil {
			return nil, fmt.Errorf("belongs to a different search (%w)", err)
		}
		st.file = f
	}
	// A file written before the engine or the rank count was recorded is
	// rewritten in the current shape at the next commit.
	st.file.Engine, st.file.N, st.file.Ranks = engine, ds.N(), ranks
	if len(st.file.Best) > 0 {
		var ck Checkpoint
		if err := ck.Load(bytes.NewReader(st.file.Best), ds); err != nil {
			return nil, fmt.Errorf("restoring best classification: %w", err)
		}
		st.best = ck.Classification
	}
	if len(st.file.InTry) > 0 {
		ck := &Checkpoint{}
		if err := ck.Load(bytes.NewReader(st.file.InTry), ds); err != nil {
			return nil, fmt.Errorf("restoring mid-try snapshot: %w", err)
		}
		if err := checkInTry(ck.Search, len(st.file.Completed), cfg); err != nil {
			return nil, err
		}
		st.inTry = ck
	}
	return st, nil
}

// checkInTry refuses a mid-try snapshot that is not for try `next` of
// cfg's schedule.
func checkInTry(sp *SearchPoint, next int, cfg SearchConfig) error {
	vs := cfg.Variants()
	switch {
	case sp == nil:
		return errors.New("mid-try snapshot lacks a search point")
	case sp.TryIndex != next || next >= len(vs):
		return fmt.Errorf("mid-try snapshot is for try %d, resume reached try %d", sp.TryIndex, next)
	case sp.TrySeed != vs[next].Seed || sp.SearchSeed != cfg.Seed:
		return fmt.Errorf("mid-try snapshot seed mismatch (rerun with -seed %d)", sp.SearchSeed)
	case sp.StartJ != vs[next].StartJ || sp.Try != vs[next].Try:
		return fmt.Errorf("mid-try snapshot is for J=%d #%d, schedule has J=%d #%d", sp.StartJ, sp.Try, vs[next].StartJ, vs[next].Try)
	case sp.CycleInTry < 1 || sp.CycleInTry > cfg.EM.MaxCycles:
		return fmt.Errorf("mid-try snapshot at cycle %d outside 1..%d", sp.CycleInTry, cfg.EM.MaxCycles)
	}
	return nil
}

// InTry returns the mid-try snapshot a resumed search continues variant v
// from, or nil when v starts from scratch.
func (st *SearchState) InTry(v Variant) *Checkpoint {
	if st == nil || st.inTry == nil || st.inTry.Search.TryIndex != v.Index {
		return nil
	}
	return st.inTry
}

// SaveInTry persists ck, a mid-try snapshot of the running try, together
// with the committed progress. Only the SPMD engine, which runs one try at
// a time, takes mid-try snapshots.
func (st *SearchState) SaveInTry(ck *Checkpoint) error {
	var buf bytes.Buffer
	if err := ck.Save(&buf); err != nil {
		return err
	}
	st.file.InTry = buf.Bytes()
	return st.write()
}

// commit records the scheduler's progress after an in-order commit and
// persists it. The best classification is re-serialized only when it
// changes, and never for a state without a Path, which is not written.
func (st *SearchState) commit(res *SearchResult) error {
	st.file.Completed = res.Tries
	st.file.Totals = res.Totals
	st.file.BestTry = res.BestTry
	st.file.InTry, st.inTry = nil, nil
	if st.Path == "" {
		return nil
	}
	if res.Best != nil && res.Best != st.best {
		var buf bytes.Buffer
		if err := (&Checkpoint{Classification: res.Best}).Save(&buf); err != nil {
			return err
		}
		st.file.Best = buf.Bytes()
		st.best = res.Best
	}
	return st.write()
}

// regenerateBest restores a best classification the state recorded but
// does not hold — a state truncated by hand or cut by a partial write: if
// a committed non-duplicate try outscores the held best, it is rerun (its
// seed makes that exact) and persisted.
func (st *SearchState) regenerateBest(res *SearchResult, run VariantRunner) error {
	best := -1
	for i, tr := range res.Tries {
		if !tr.Duplicate && (best < 0 || tr.Score > res.Tries[best].Score) {
			best = i
		}
	}
	if best < 0 || (res.Best != nil && res.Tries[best].Score <= res.BestTry.Score) {
		return nil
	}
	tr := res.Tries[best]
	cls, _, err := run(Variant{Index: best, StartJ: tr.StartJ, Try: tr.Try, Seed: tr.Seed})
	if err != nil {
		return err
	}
	res.Best, res.BestTry = cls, tr
	return st.commit(res)
}

// write persists the state atomically (write temp, rename), so a crash or
// a failed write leaves the previous state intact. A state without a Path
// is not written.
func (st *SearchState) write() error {
	if st.Path == "" {
		return nil
	}
	raw, err := json.Marshal(&st.file)
	if err != nil {
		return err
	}
	return atomicfile.Write(st.Path, raw)
}
