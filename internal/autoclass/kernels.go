package autoclass

import (
	"repro/internal/dataset"
	"repro/internal/model"
)

// KernelMode selects how the engine's two data-parallel phases evaluate the
// model terms.
type KernelMode int

const (
	// Blocked is the default: column-major blocked kernels with per-cycle
	// constants precomputed once per (class, term) — no interface call and
	// no recomputed invariant on the per-row hot path. Results agree with
	// Reference to ≤1e-12 relative and are themselves fully deterministic
	// (fixed block grid inside the fixed shard grid), so trajectories are
	// bitwise reproducible for any Parallelism within Blocked mode.
	Blocked KernelMode = iota
	// Reference is the seed engine's per-row Term path, retained as the
	// bitwise ground truth the blocked kernels are tested against.
	Reference
)

// String implements fmt.Stringer.
func (m KernelMode) String() string {
	switch m {
	case Blocked:
		return "blocked"
	case Reference:
		return "reference"
	default:
		return "KernelMode(" + itoa(int(m)) + ")"
	}
}

// itoa avoids importing strconv for one error-path formatting.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [24]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// KernelBlockRows is the row-block size of the blocked kernels. It divides
// RowShardSize, so the block grid inside every shard is identical whether a
// shard is processed alone or as part of a larger sequential range — the
// blocked path stays bitwise deterministic for every Parallelism setting.
// A block holds one 2 KiB vector per class, so the per-worker scratch
// grows with J (128 KiB at J=64); the block step's three sweeps stream
// through it one contiguous class vector at a time.
const KernelBlockRows = 256

// The chunked data plane's grid must stay in lockstep with the kernel
// block grid — a kernel block may never straddle a chunk boundary, which
// is what makes trajectories bitwise identical across chunk backings and
// sizes. Negative array lengths fail the build if the constants diverge.
var (
	_ [KernelBlockRows - dataset.ChunkAlign]struct{}
	_ [dataset.ChunkAlign - KernelBlockRows]struct{}
)

// kernelSet caches one blocked kernel per (class, term), keyed on term
// identity. When the class/term structure is unchanged the kernels are
// merely Refreshed against the current parameters, so the steady state
// allocates nothing; pruning (or a restored classification) changes the
// term set and triggers a rebuild. Shared by the engine, the Predictor and
// the StreamTrainer.
type kernelSet struct {
	k     [][]model.Kernel
	terms [][]model.Term
}

// prepare readies the set for the classes' current parameters.
func (ks *kernelSet) prepare(classes []*Class) {
	same := len(ks.terms) == len(classes)
	if same {
	check:
		for cj, cl := range classes {
			if len(ks.terms[cj]) != len(cl.Terms) {
				same = false
				break
			}
			for bi, t := range cl.Terms {
				if ks.terms[cj][bi] != t {
					same = false
					break check
				}
			}
		}
	}
	if same {
		for _, row := range ks.k {
			for _, k := range row {
				k.Refresh()
			}
		}
		return
	}
	ks.k = make([][]model.Kernel, len(classes))
	ks.terms = make([][]model.Term, len(classes))
	for cj, cl := range classes {
		ks.k[cj] = make([]model.Kernel, len(cl.Terms))
		ks.terms[cj] = append([]model.Term(nil), cl.Terms...)
		for bi, t := range cl.Terms {
			ks.k[cj][bi] = t.Kernel()
		}
	}
}

// blockScratch is one worker's scratch, owned by exactly one goroutine at
// a time: per-class block vectors (KernelBlockRows long) that hold the
// log-memberships and then, in place, the exponentials and weights of the
// block step; a synthesized weight column for the crisp initialization;
// the kernels' own scratch; the normalizer's per-row vectors; a per-row
// log-membership vector for the Reference path; and — on chunk-backed
// views — the worker's chunk cursor, pinning exactly the chunk under its
// blocks.
type blockScratch struct {
	lp   [][]float64
	wcol []float64
	logp []float64
	ks   model.Scratch
	norm normScratch
	cur  dataset.ChunkCursor
}

// grow sizes the scratch for j classes, allocating only when j grows.
func (bs *blockScratch) grow(j int) {
	for len(bs.lp) < j {
		bs.lp = append(bs.lp, make([]float64, KernelBlockRows))
	}
	if bs.wcol == nil {
		bs.wcol = make([]float64, KernelBlockRows)
	}
	if len(bs.logp) < j {
		bs.logp = make([]float64, j)
	}
}

// crispStatsBlock folds rows [lo, hi) of cols into the statistics under
// the crisp initial assignment: class cj's weight column is 1 where the
// hash assigns the row (global index first+r) to cj and 0 elsewhere — the
// values a materialized crisp weights matrix would hold.
func (bs *blockScratch) crispStatsBlock(classes []*Class, kerns [][]model.Kernel, cols *dataset.Columns, lo, hi, first int, seed uint64, buf []float64, offs []int) {
	j := len(classes)
	wcol := bs.wcol[:hi-lo]
	ti := 0
	for cj := range classes {
		for r := range wcol {
			wcol[r] = 0
			if InitialClass(seed, first+r, j) == cj {
				wcol[r] = 1
			}
		}
		for _, k := range kerns[cj] {
			k.BlockAccumulateStats(cols, wcol, lo, hi, buf[offs[ti]:offs[ti+1]], &bs.ks)
			ti++
		}
	}
}

// workerScratch returns per-worker scratch sized for j classes, reused
// across cycles. On a chunk-backed view each worker's cursor is pointed at
// the view's chunk source for the coming pass.
func (e *Engine) workerScratch(workers, j int) []*blockScratch {
	for len(e.blockScr) < workers {
		e.blockScr = append(e.blockScr, &blockScratch{})
	}
	for w := 0; w < workers; w++ {
		bs := e.blockScr[w]
		bs.grow(j)
		if e.chunked {
			bs.cur.Reset(e.src)
		}
	}
	return e.blockScr
}

// closeCursors releases every worker cursor's pinned chunk — called at the
// end of each pass so a bounded-residency backing can evict freely
// between passes.
func (e *Engine) closeCursors() {
	if !e.chunked {
		return
	}
	for _, bs := range e.blockScr {
		bs.cur.Close()
	}
}

// block resolves the view-local row block [blo, bhi) to the Columns the
// kernels should walk: the monolithic mirror itself on a materialized
// view, or the cursor-pinned chunk (with chunk-local bounds) on a
// chunk-backed one.
func (e *Engine) block(bs *blockScratch, blo, bhi int) (cols *dataset.Columns, lo, hi int) {
	if e.chunked {
		return bs.cur.Block(blo, bhi)
	}
	return e.cols, blo, bhi
}

// prepareKernels readies the blocked path for a pass: the column-major
// mirror (built lazily once per view) and the kernel set.
func (e *Engine) prepareKernels() {
	if !e.chunked && e.cols == nil {
		e.cols = e.view.Columns()
	}
	e.kerns.prepare(e.cls.Classes)
}
