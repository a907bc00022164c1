package pautoclass

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"

	"repro/internal/autoclass"
	"repro/internal/dataset"
	"repro/internal/mpi"
)

// The distributed checkpoint protocol leans on the package's SPMD
// invariant: every rank holds the identical classification and search state
// at every cycle boundary, because all decisions are driven by globally
// reduced quantities. A group-consistent snapshot therefore needs no state
// gathering — the ranks agree on the cycle via a collective, and rank 0
// serializes its own (identical) copy. On resume the state file is read by
// rank 0 and broadcast, so every rank restores from the same bytes even if
// only rank 0's filesystem holds the checkpoint, and the restored search
// re-enters the trajectory bitwise. The parallel priors' reduction order
// makes scores differ in the last bits across rank counts, so the state
// records the rank count and a resume on another count is refused.
//
// The state file is autoclass.SearchState, the format the sequential engine
// writes too, tagged as SPMD-written; only the SPMD engine adds a mid-try
// snapshot (in_try). The scheduler's commit hook writes it on rank 0 after
// every try; the per-try runner (trial.run) restores a mid-try snapshot,
// writes a new one every Every cycles and polls Interrupt.

// Checkpoint configures distributed checkpointing of a parallel search
// (Options.Checkpoint). The zero value disables it.
type Checkpoint struct {
	// Path is the search state file. Rank 0 writes it; on resume rank 0
	// reads it and broadcasts, so only rank 0's filesystem needs it. Every
	// and Interrupt require it.
	Path string
	// Every takes a mid-try snapshot after that many cycles within a try
	// (<= 0 checkpoints only at try boundaries).
	Every int
	// Interrupt, when non-nil, is polled at every cycle boundary (and
	// between tries) for a cooperative stop request — the serving daemon's
	// shutdown path. Because each rank polls its own copy and a stop must
	// be group-consistent, the polled values are combined with an
	// Allreduce(Max): the search stops as soon as ANY rank has seen the
	// request, and every rank stops at the same cycle. On an agreed stop
	// the search persists a resumable snapshot to Path and returns
	// ErrInterrupted. Polling costs one extra collective per cycle; leave
	// nil when cooperative shutdown is not needed.
	Interrupt func() bool
}

// ErrInterrupted is returned (wrapped) by Search when Checkpoint.Interrupt
// requested a stop. The state file then holds a resumable snapshot: calling
// Search again with the same arguments continues the search
// bitwise-identically. Search and mpi.RunWith wrap errors with %w, so
// callers can errors.Is through them.
var ErrInterrupted = errors.New("pautoclass: search interrupted")

// loadState reads the state file on rank 0 and broadcasts its bytes, so
// every rank restores from identical bytes even if only rank 0's
// filesystem holds the file. A missing file starts a fresh search. Only
// rank 0's state keeps the path, so only rank 0 writes.
func loadState(comm *mpi.Comm, path string, cfg autoclass.SearchConfig, ds *dataset.Dataset) (*autoclass.SearchState, error) {
	var raw []byte
	if comm.Rank() == 0 {
		r, err := os.ReadFile(path)
		if err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		raw = r
	}
	raw, err := bcastBytes(comm, 0, raw)
	if err != nil {
		return nil, fmt.Errorf("pautoclass: broadcasting checkpoint state: %w", err)
	}
	st, err := autoclass.LoadSearchState(raw, cfg, ds, autoclass.EngineSPMD, comm.Size())
	if err != nil {
		return nil, fmt.Errorf("pautoclass: state file %s: %w", path, err)
	}
	if comm.Rank() == 0 {
		st.Path = path
	}
	return st, nil
}

// bcastBytes broadcasts a byte slice from root to every rank: length first,
// then the bytes packed eight per float64 through their bit patterns (the
// same trick BcastUint64 uses), then an FNV checksum each rank verifies
// against its unpacked copy — a corrupted broadcast must fail loudly, not
// let ranks restore divergent state.
func bcastBytes(comm *mpi.Comm, root int, b []byte) ([]byte, error) {
	n64, err := comm.BcastUint64(root, uint64(len(b)))
	if err != nil {
		return nil, err
	}
	n := int(n64)
	if n == 0 {
		return nil, nil
	}
	words := make([]float64, (n+7)/8)
	if comm.Rank() == root {
		var chunk [8]byte
		for i := range words {
			copy(chunk[:], b[i*8:min(n, i*8+8)])
			words[i] = math.Float64frombits(leUint64(chunk))
		}
	}
	if err := comm.Bcast(root, words); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	for i, w := range words {
		chunk := leBytes(math.Float64bits(w))
		copy(out[i*8:min(n, i*8+8)], chunk[:])
	}
	h := fnv.New64a()
	h.Write(out)
	want, err := comm.BcastUint64(root, h.Sum64())
	if err != nil {
		return nil, err
	}
	if want != h.Sum64() {
		return nil, fmt.Errorf("pautoclass: rank %d checkpoint broadcast checksum mismatch", comm.Rank())
	}
	return out, nil
}

// agreeInterrupt combines the ranks' local interrupt polls into a
// group-consistent stop decision. The Allreduce doubles as a barrier, so no
// rank can race ahead into the next cycle while another decides to stop.
func agreeInterrupt(comm *mpi.Comm, poll func() bool) (bool, error) {
	v := 0.0
	if poll() {
		v = 1
	}
	agreed, err := comm.AllreduceFloat64(mpi.Max, v)
	if err != nil {
		return false, fmt.Errorf("pautoclass: interrupt agreement: %w", err)
	}
	return agreed > 0, nil
}

func leUint64(b [8]byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func leBytes(v uint64) [8]byte {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

// snapshotHook is the checkpoint protocol inside a running try: at every
// cycle boundary it polls the interrupt, and every ck.Every cycles — or on
// an agreed stop — the group agrees on the cycle and rank 0 writes a
// mid-try snapshot of variant v.
func (t *trial) snapshotHook(eng *autoclass.Engine, v autoclass.Variant) autoclass.CycleHook {
	ck := t.opts.Checkpoint
	return func(cycle int, converged bool) error {
		stop := false
		if ck.Interrupt != nil {
			s, err := agreeInterrupt(t.comm, ck.Interrupt)
			if err != nil {
				return err
			}
			stop = s
		}
		// The try's final cycle — converged or the last MaxCycles allows,
		// which every rank computes alike — is persisted at the try
		// boundary; no mid-try snapshot needed. A stop request on that
		// cycle lets the try finish — the between-tries poll catches it.
		final := converged || cycle+1 >= t.opts.EM.MaxCycles
		snap := ck.Every > 0 && (cycle+1)%ck.Every == 0
		if final || (!snap && !stop) {
			return nil
		}
		// Group-consistent snapshot: every rank proposes its cycle;
		// agreement is the SPMD invariant holding. A mismatch means the
		// trajectory has already diverged — refuse to write a checkpoint
		// that lies about it.
		agreed, err := t.comm.AllreduceFloat64(mpi.Min, float64(cycle))
		if err != nil {
			return fmt.Errorf("pautoclass: checkpoint agreement: %w", err)
		}
		if int(agreed) != cycle {
			return fmt.Errorf("pautoclass: rank %d at cycle %d but group minimum is %v (SPMD divergence)", t.comm.Rank(), cycle, agreed)
		}
		if t.comm.Rank() == 0 {
			st := eng.State()
			err := t.state.SaveInTry(&autoclass.Checkpoint{
				Classification: eng.Classification(),
				Search: &autoclass.SearchPoint{
					TryIndex:      v.Index,
					StartJ:        v.StartJ,
					Try:           v.Try,
					TrySeed:       v.Seed,
					CycleInTry:    cycle + 1,
					BelowTol:      st.BelowTol,
					LastPost:      st.LastPost,
					SearchSeed:    t.seed,
					Reductions:    st.Reductions,
					ReducedValues: st.ReducedValues,
				},
			})
			if err != nil {
				return err
			}
		}
		if stop {
			return ErrInterrupted
		}
		return nil
	}
}
