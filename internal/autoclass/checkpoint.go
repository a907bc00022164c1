package autoclass

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/atomicfile"
	"repro/internal/dataset"
	"repro/internal/model"
)

// AutoClass C checkpoints long classification runs so they can resume after
// interruption; this file provides the equivalent: a JSON snapshot of a
// classification's structure and parameters that can be reloaded against
// the same dataset. The Checkpoint type is the one entry point — it
// round-trips both plain classification snapshots and mid-search state.

// Checkpoint is a versioned snapshot of a fitted (or mid-run)
// classification, optionally pinned to its position in a BIG_LOOP search.
// Save writes the JSON form; Load reconstructs it against the dataset the
// run used. A Checkpoint with a nil Search is a plain classification
// snapshot; with a non-nil Search it resumes the search trajectory
// bitwise (see SearchPoint).
type Checkpoint struct {
	Classification *Classification
	// Search is the mid-search position, nil for plain snapshots.
	Search *SearchPoint
}

// Save serializes the checkpoint to w. A mid-search snapshot (Search
// non-nil) is only legal after at least one completed cycle: before that
// LastPost is -Inf, which JSON cannot encode.
func (c *Checkpoint) Save(w io.Writer) error {
	if c == nil || c.Classification == nil {
		return errors.New("autoclass: nil classification")
	}
	ck, err := buildCheckpoint(c.Classification)
	if err != nil {
		return err
	}
	if sp := c.Search; sp != nil {
		if math.IsInf(sp.LastPost, 0) || math.IsNaN(sp.LastPost) {
			return fmt.Errorf("autoclass: search checkpoint before first cycle (last_post %v)", sp.LastPost)
		}
		ck.Search = &ckptSearchV1{
			TryIndex:      sp.TryIndex,
			StartJ:        sp.StartJ,
			Try:           sp.Try,
			TrySeed:       sp.TrySeed,
			CycleInTry:    sp.CycleInTry,
			BelowTol:      sp.BelowTol,
			LastPost:      sp.LastPost,
			SearchSeed:    sp.SearchSeed,
			SyncStats:     sp.SyncStats,
			Reductions:    sp.Reductions,
			ReducedValues: sp.ReducedValues,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&ck)
}

// Load fills the checkpoint from r, validating the stored spec against the
// dataset's schema and rejecting unknown versions. Search stays nil when
// the stream holds a plain snapshot.
func (c *Checkpoint) Load(r io.Reader, ds *dataset.Dataset) error {
	var ck checkpointV1
	dec := json.NewDecoder(r)
	if err := dec.Decode(&ck); err != nil {
		return fmt.Errorf("autoclass: decode checkpoint: %w", err)
	}
	if ck.Version != 1 {
		return fmt.Errorf("autoclass: unsupported checkpoint version %d", ck.Version)
	}
	if len(ck.Classes) == 0 {
		return errors.New("autoclass: checkpoint has no classes")
	}
	cls, err := restoreClassification(&ck, ds)
	if err != nil {
		return err
	}
	c.Classification = cls
	c.Search = nil
	if ck.Search != nil {
		c.Search = &SearchPoint{
			TryIndex:      ck.Search.TryIndex,
			StartJ:        ck.Search.StartJ,
			Try:           ck.Search.Try,
			TrySeed:       ck.Search.TrySeed,
			CycleInTry:    ck.Search.CycleInTry,
			BelowTol:      ck.Search.BelowTol,
			LastPost:      ck.Search.LastPost,
			SearchSeed:    ck.Search.SearchSeed,
			SyncStats:     ck.Search.SyncStats,
			Reductions:    ck.Search.Reductions,
			ReducedValues: ck.Search.ReducedValues,
		}
	}
	return nil
}

// SaveFile writes the checkpoint to path atomically: a failed write leaves
// the previous file, and no temporary file.
func (c *Checkpoint) SaveFile(path string) error {
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		return err
	}
	return atomicfile.Write(path, buf.Bytes())
}

// LoadFile fills the checkpoint from the file at path.
func (c *Checkpoint) LoadFile(path string, ds *dataset.Dataset) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return c.Load(f, ds)
}

// checkpointV1 is the serialized form.
type checkpointV1 struct {
	Version   int             `json:"version"`
	N         int             `json:"n"`
	LogLik    float64         `json:"log_lik"`
	LogPrior  float64         `json:"log_prior"`
	LogPost   float64         `json:"log_post"`
	Cycles    int             `json:"cycles"`
	Converged bool            `json:"converged"`
	Blocks    []ckptBlock     `json:"blocks"`
	Classes   []ckptClass     `json:"classes"`
	Priors    json.RawMessage `json:"priors"`
	// Search carries the mid-search position when the checkpoint was taken
	// inside a try; absent for plain classification snapshots.
	Search *ckptSearchV1 `json:"search,omitempty"`
}

// ckptSearchV1 is the serialized SearchPoint.
type ckptSearchV1 struct {
	TryIndex   int     `json:"try_index"`
	StartJ     int     `json:"start_j"`
	Try        int     `json:"try"`
	TrySeed    uint64  `json:"try_seed"`
	CycleInTry int     `json:"cycle_in_try"`
	BelowTol   int     `json:"below_tol"`
	LastPost   float64 `json:"last_post"`
	SearchSeed uint64  `json:"search_seed"`
	// SyncStats is the bounded-staleness global-statistics baseline at the
	// snapshot's sync point; absent for synchronous (SyncEvery <= 1) runs.
	SyncStats []float64 `json:"sync_stats,omitempty"`
	// Reductions and ReducedValues count the try's reducer traffic so far;
	// absent in snapshots written before they were recorded.
	Reductions    int `json:"reductions,omitempty"`
	ReducedValues int `json:"reduced_values,omitempty"`
}

// SearchPoint pins a checkpoint to its position in the BIG_LOOP search: the
// try index in the deterministic schedule, the class-count ladder position,
// the RNG stream state (the per-try seed drawn from the search's seed
// chain), and the engine's cycle-boundary state within the try. Together
// with the classification it makes resume reproduce the uninterrupted
// trajectory bitwise.
type SearchPoint struct {
	// TryIndex is the 0-based position in the flattened StartJList × Tries
	// schedule; it equals the number of Uint64 draws consumed from the
	// search seed chain before this try's seed.
	TryIndex int
	// StartJ and Try locate the try on the class-count ladder (Try counts
	// repeats within one StartJ).
	StartJ, Try int
	// TrySeed is the seed drawn for this try — the RNG stream state,
	// verified on resume against a re-derived chain.
	TrySeed uint64
	// CycleInTry is the number of completed cycles within the try.
	CycleInTry int
	// BelowTol and LastPost restore the engine's convergence tracker.
	BelowTol int
	LastPost float64
	// SyncStats restores the bounded-staleness baseline (EngineState.
	// SyncStats); nil for synchronous runs. Snapshots are taken only at
	// sync points, so the classification's own W/LogLik double as the
	// synced weights baseline.
	SyncStats []float64
	// SearchSeed is the search's root seed, so resume can detect a
	// mismatched -seed flag instead of silently diverging.
	SearchSeed uint64
	// Reductions and ReducedValues count the try's reducer traffic over
	// its first CycleInTry cycles (EngineState), so a resumed try reports
	// the same totals as an uninterrupted one.
	Reductions, ReducedValues int
}

type ckptBlock struct {
	Kind  int   `json:"kind"`
	Attrs []int `json:"attrs"`
}

type ckptClass struct {
	LogPi float64     `json:"log_pi"`
	W     float64     `json:"w"`
	Terms [][]float64 `json:"terms"`
}

// buildCheckpoint converts a classification to its serialized form.
func buildCheckpoint(cls *Classification) (checkpointV1, error) {
	ck := checkpointV1{
		Version:   1,
		N:         cls.N,
		LogLik:    cls.LogLik,
		LogPrior:  cls.LogPrior,
		LogPost:   cls.LogPost,
		Cycles:    cls.Cycles,
		Converged: cls.Converged,
	}
	for _, b := range cls.Spec.Blocks {
		ck.Blocks = append(ck.Blocks, ckptBlock{Kind: int(b.Kind), Attrs: b.Attrs})
	}
	for _, cl := range cls.Classes {
		cc := ckptClass{LogPi: cl.LogPi, W: cl.W}
		for _, t := range cl.Terms {
			cc.Terms = append(cc.Terms, t.Params())
		}
		ck.Classes = append(ck.Classes, cc)
	}
	pri, err := json.Marshal(cls.Priors)
	if err != nil {
		return ck, fmt.Errorf("autoclass: marshal priors: %w", err)
	}
	ck.Priors = pri
	return ck, nil
}

// restoreClassification rebuilds the in-memory classification from its
// serialized form, validating against the dataset's schema.
func restoreClassification(ck *checkpointV1, ds *dataset.Dataset) (*Classification, error) {
	var spec model.Spec
	for _, b := range ck.Blocks {
		spec.Blocks = append(spec.Blocks, model.BlockSpec{Kind: model.TermKind(b.Kind), Attrs: b.Attrs})
	}
	if err := spec.Validate(ds); err != nil {
		return nil, fmt.Errorf("autoclass: checkpoint spec does not fit dataset: %w", err)
	}
	var pr model.Priors
	if err := json.Unmarshal(ck.Priors, &pr); err != nil {
		return nil, fmt.Errorf("autoclass: decode priors: %w", err)
	}
	if err := checkPriors(&pr, ds); err != nil {
		return nil, err
	}
	cls, err := NewClassification(ds, spec, &pr, len(ck.Classes))
	if err != nil {
		return nil, err
	}
	cls.N = ck.N
	cls.LogLik = ck.LogLik
	cls.LogPrior = ck.LogPrior
	cls.LogPost = ck.LogPost
	cls.Cycles = ck.Cycles
	cls.Converged = ck.Converged
	for j, cc := range ck.Classes {
		cl := cls.Classes[j]
		cl.LogPi = cc.LogPi
		cl.W = cc.W
		if len(cc.Terms) != len(cl.Terms) {
			return nil, fmt.Errorf("autoclass: class %d has %d term param sets, spec has %d", j, len(cc.Terms), len(cl.Terms))
		}
		for bi, params := range cc.Terms {
			if err := cl.Terms[bi].SetParams(params); err != nil {
				return nil, fmt.Errorf("autoclass: class %d term %d: %w", j, bi, err)
			}
		}
	}
	return cls, nil
}

// checkPriors refuses decoded priors that do not cover the dataset's
// schema: the terms index every per-attribute slice, so a short one would
// panic at the first lookup instead of failing the load.
func checkPriors(pr *model.Priors, ds *dataset.Dataset) error {
	na := ds.NumAttrs()
	for _, n := range []int{len(pr.Mean), len(pr.Sigma), len(pr.SigmaFloor), len(pr.GlobalFreq),
		len(pr.LogMean), len(pr.LogSigma), len(pr.LogSigmaFloor), len(pr.NonPositive)} {
		if n != na {
			return fmt.Errorf("autoclass: checkpoint priors cover %d attributes, dataset has %d", n, na)
		}
	}
	for k := 0; k < na; k++ {
		if a := ds.Attr(k); a.Type == dataset.Discrete && len(pr.GlobalFreq[k]) != a.Cardinality() {
			return fmt.Errorf("autoclass: checkpoint priors have %d levels for %q, dataset has %d",
				len(pr.GlobalFreq[k]), a.Name, a.Cardinality())
		}
	}
	return nil
}
