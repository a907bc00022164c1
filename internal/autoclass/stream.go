package autoclass

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/dataset"
)

// Streaming ingest training: EM over data that arrives batch by batch.
//
// An EM cycle's global quantities are sums over rows — the class weights,
// the log-likelihood, and every term's sufficient statistics — evaluated
// against parameters frozen at the top of the cycle. Nothing in that
// structure needs the rows to be resident at once: a StreamTrainer holds
// the running sums and folds one mini-batch at a time (a CSV chunk off the
// wire, a chunk faulted from a chunk file), so ingest-time training needs
// only one batch of rows in memory plus O(J · stats) state.
//
// The numerics are NOT approximate. A cycle folded from batches is bitwise
// identical to Engine.BaseCycle on the deterministic sharded path
// (Parallelism >= 1) over the concatenated rows, provided every batch
// except the last is a multiple of KernelBlockRows long: the global block
// grid then lands on the same rows, per-slot additions happen in the same
// ascending order, shard accumulators are merged at the same RowShardSize
// boundaries in the same ascending order, and the reduce sequence (class
// weights first, then the statistics exchange) is preserved. The streaming
// property test pins this equality.
type StreamTrainer struct {
	cls     *Classification
	cfg     Config
	reducer Reducer
	charger Charger

	kerns kernelSet
	ws    blockScratch

	offs     []int
	combined []float64 // merged shard sums: {w_j..., logLik, stats...}
	shard    []float64 // the open (partial) shard's accumulator
	rows     int       // rows folded into the current cycle

	phase    streamPhase
	seed     uint64
	lastN    int // rows per cycle, fixed by the first completed cycle
	initSecs float64
	t0       time.Time
}

type streamPhase int

const (
	streamIdle streamPhase = iota
	streamInit             // folding the crisp initialization pass
	streamEM               // folding an EM cycle
)

// NewStreamTrainer builds a streaming trainer over the classification. The
// configuration is interpreted as for NewEngine, except that Parallelism
// is ignored (folding is sequential; the caller drives the batches) — the
// trajectory matches an engine running the deterministic sharded path.
// Only the Blocked kernels stream.
func NewStreamTrainer(cls *Classification, cfg Config, red Reducer, ch Charger) (*StreamTrainer, error) {
	if cls == nil {
		return nil, errors.New("autoclass: nil classification")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Kernels != Blocked {
		return nil, errors.New("autoclass: streaming requires the Blocked kernels")
	}
	if cfg.EffectiveSyncEvery() > 1 {
		return nil, errors.New("autoclass: SyncEvery > 1 is not supported when streaming")
	}
	return &StreamTrainer{cls: cls, cfg: cfg, reducer: red, charger: ch}, nil
}

func (st *StreamTrainer) charge(units float64) {
	if st.charger != nil {
		st.charger.ChargeOps(units)
	}
}

func (st *StreamTrainer) reduce(buf []float64) (int, error) {
	if st.reducer == nil {
		return 0, nil
	}
	if err := st.reducer.ReduceInPlace(buf); err != nil {
		return 0, err
	}
	return len(buf), nil
}

// prepare readies kernels, scratch and the accumulators for a new pass.
func (st *StreamTrainer) prepare() {
	classes := st.cls.Classes
	j := len(classes)
	st.kerns.prepare(classes)
	st.ws.grow(j)
	offs := st.offs[:0]
	total := 0
	for _, cl := range classes {
		for _, term := range cl.Terms {
			offs = append(offs, total)
			total += term.StatsSize()
		}
	}
	offs = append(offs, total)
	st.offs = offs
	width := j + 1 + total
	if cap(st.combined) < width {
		st.combined = make([]float64, width)
		st.shard = make([]float64, width)
	}
	st.combined = st.combined[:width]
	st.shard = st.shard[:width]
	for i := range st.combined {
		st.combined[i] = 0
		st.shard[i] = 0
	}
	st.rows = 0
}

// BeginInit starts the crisp initialization pass: subsequent Fold calls
// accumulate the hash assignment's class counts and statistics, and
// FinishInit turns them into the initial parameters — the streaming
// equivalent of Engine.InitRandom with the same seed.
func (st *StreamTrainer) BeginInit(seed uint64) error {
	if st.phase != streamIdle {
		return errors.New("autoclass: BeginInit inside an open pass")
	}
	if st.cls.J() < 1 {
		return errors.New("autoclass: no classes to initialize")
	}
	st.t0 = time.Now()
	st.seed = seed
	st.prepare()
	st.phase = streamInit
	return nil
}

// Fold accumulates one mini-batch of rows into the open pass. Every batch
// except the final one must hold a multiple of KernelBlockRows rows, so
// the global block grid is independent of how the stream was batched.
func (st *StreamTrainer) Fold(cols *dataset.Columns) error {
	if st.phase == streamIdle {
		return errors.New("autoclass: Fold outside a pass (call BeginInit or BeginCycle)")
	}
	if st.rows%KernelBlockRows != 0 {
		return fmt.Errorf("autoclass: previous batch ended mid-block (%d rows folded); only the final batch may be partial", st.rows)
	}
	n := cols.N()
	for blo := 0; blo < n; blo += KernelBlockRows {
		bhi := blo + KernelBlockRows
		if bhi > n {
			bhi = n
		}
		if st.phase == streamInit {
			st.foldInitBlock(cols, blo, bhi)
		} else {
			// The fused E+M step of the engine's fused pass.
			st.ws.emBlock(st.cls.Classes, st.kerns.k, cols, blo, bhi, st.shard, st.offs)
		}
		st.rows += bhi - blo
		if st.rows%RowShardSize == 0 {
			st.mergeShard()
		}
	}
	return nil
}

// mergeShard folds the open shard accumulator into the running totals —
// the ascending-order shard merge of the engine's deterministic path.
func (st *StreamTrainer) mergeShard() {
	for k, v := range st.shard {
		st.combined[k] += v
		st.shard[k] = 0
	}
}

// foldInitBlock accumulates the crisp assignment's class counts and
// statistics for rows [blo, bhi) of the batch — the engine's blocked
// initialization with the global row index carried by the trainer. The
// counts are sums of 0/1 weights, so they are exact in any order.
func (st *StreamTrainer) foldInitBlock(cols *dataset.Columns, blo, bhi int) {
	j := st.cls.J()
	st.ws.crispStatsBlock(st.cls.Classes, st.kerns.k, cols, blo, bhi, st.rows, st.seed, st.shard[:j], st.shard[j+1:], st.offs)
}

// closePass merges the trailing partial shard and returns the cycle's row
// count.
func (st *StreamTrainer) closePass() int {
	if st.rows%RowShardSize != 0 || st.rows == 0 {
		st.mergeShard()
	}
	return st.rows
}

// FinishInit completes the initialization pass: class weights from the
// crisp counts, then the statistics exchange that estimates the initial
// parameters — bitwise Engine.InitRandom over the same rows and seed.
func (st *StreamTrainer) FinishInit() error {
	if st.phase != streamInit {
		return errors.New("autoclass: FinishInit without BeginInit")
	}
	n := st.closePass()
	j := st.cls.J()
	st.charge(float64(n))
	if _, err := st.reduce(st.combined[:j]); err != nil {
		return fmt.Errorf("autoclass: init reduce: %w", err)
	}
	for cj, cl := range st.cls.Classes {
		cl.W = st.combined[cj]
	}
	st.cls.UpdateClassWeightsFromW()
	if _, _, err := exchangeClassStats(st.cls, st.cfg.Granularity, st.reduce, st.combined[j+1:], st.offs); err != nil {
		return err
	}
	a := float64(st.cls.NumAttrColumns())
	st.charge(float64(n) * float64(j) * a)
	st.updateApproximations()
	st.lastN = n
	st.phase = streamEM
	st.initSecs = time.Since(st.t0).Seconds()
	st.prepare()
	return nil
}

// InitSeconds reports the wall-clock time of the initialization pass.
func (st *StreamTrainer) InitSeconds() float64 { return st.initSecs }

// Flush completes one EM cycle: the weights reduce, the statistics
// exchange, the posterior refresh and class pruning — bitwise the tail of
// Engine.BaseCycle. The trainer is then ready for the next cycle's Folds.
func (st *StreamTrainer) Flush() (CycleStats, error) {
	var cs CycleStats
	cs.Synced = true
	if st.phase != streamEM {
		return cs, errors.New("autoclass: Flush before initialization")
	}
	t0 := time.Now()
	n := st.closePass()
	if st.lastN != 0 && n != st.lastN {
		return cs, fmt.Errorf("autoclass: cycle folded %d rows, previous cycles folded %d", n, st.lastN)
	}
	j := st.cls.J()
	a := float64(st.cls.NumAttrColumns())
	st.charge(float64(n) * float64(j) * (a + 1))
	wtsOut := st.combined[:j+1]
	v, err := st.reduce(wtsOut)
	if err != nil {
		return cs, fmt.Errorf("autoclass: reduce wts: %w", err)
	}
	if v > 0 {
		cs.ReducedValues += v
		cs.Reductions++
	}
	for cj, cl := range st.cls.Classes {
		cl.W = wtsOut[cj]
	}
	st.cls.LogLik = wtsOut[j]
	cs.WtsSeconds = time.Since(t0).Seconds()

	t1 := time.Now()
	rv, rn, err := exchangeClassStats(st.cls, st.cfg.Granularity, st.reduce, st.combined[j+1:], st.offs)
	if err != nil {
		return cs, err
	}
	cs.ReducedValues += rv
	cs.Reductions += rn
	st.charge(float64(n) * float64(j) * a)
	cs.ParamsSeconds = time.Since(t1).Seconds()

	t2 := time.Now()
	st.updateApproximations()
	cs.ApproxSeconds = time.Since(t2).Seconds()

	st.pruneDeadClasses()
	st.cls.Cycles++
	cs.LogPost = st.cls.LogPost
	st.prepare()
	return cs, nil
}

func (st *StreamTrainer) updateApproximations() {
	st.cls.UpdateClassWeightsFromW()
	st.cls.RefreshPosterior()
	st.charge(float64(st.cls.J()) * float64(st.cls.NumAttrColumns()+4))
}

// pruneDeadClasses mirrors the engine's class-death rule (there is no
// weights matrix to compact on the streaming path).
func (st *StreamTrainer) pruneDeadClasses() {
	if !st.cfg.PruneClasses || st.cls.J() <= 1 {
		return
	}
	j := st.cls.J()
	keep := make([]int, 0, j)
	for cj, cl := range st.cls.Classes {
		if cl.W >= st.cfg.MinClassWeight {
			keep = append(keep, cj)
		}
	}
	if len(keep) == j {
		return
	}
	if len(keep) == 0 {
		best := 0
		for cj, cl := range st.cls.Classes {
			if cl.W > st.cls.Classes[best].W {
				best = cj
			}
		}
		keep = []int{best}
	}
	newClasses := make([]*Class, len(keep))
	for ni, cj := range keep {
		newClasses[ni] = st.cls.Classes[cj]
	}
	st.cls.Classes = newClasses
	st.cls.UpdateClassWeightsFromW()
}

// Classification returns the trainer's (mutated in place) classification.
func (st *StreamTrainer) Classification() *Classification { return st.cls }
