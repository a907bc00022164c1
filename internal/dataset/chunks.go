package dataset

import "fmt"

// Chunked columnar data plane.
//
// The engine's blocked kernels walk column-major row blocks of at most 256
// rows (autoclass.KernelBlockRows). Everything above that granularity is a
// question of storage, not math — so the data plane is organized as a
// sequence of fixed-size row chunks whose size is a multiple of the kernel
// block, behind the ChunkStore interface. Three backings implement it:
//
//   - in memory: an in-memory dataset's own one-chunk column store
//     (colStore, columns.go), and zero-copy windows of its columns on a
//     chunk grid (memChunkStore, below), which views and ChunkedCopy cut;
//   - a memory-mapped chunk file (mmapStore, chunkfile.go);
//   - a bounded-residency cache that pins at most B chunks in RAM and
//     faults the rest from the file on demand (cachedStore, chunkfile.go).
//
// Because every chunk boundary is a multiple of ChunkAlign and the kernel
// block grid is ChunkAlign-aligned too, a kernel block never straddles a
// chunk: each Block call resolves to one contiguous window of one chunk.
// The arithmetic the kernels perform — which rows are grouped into which
// partial sums — is therefore identical for every backing and every chunk
// size, and search trajectories are bitwise identical by construction.
// That invariant is what lets one refactor serve in-RAM training, mmap-
// backed datasets bigger than RAM, and streaming ingest alike.

// ChunkAlign is the row alignment every chunk size must honor. It equals
// the blocked kernels' row-block size (autoclass.KernelBlockRows asserts
// the two stay in lockstep at compile time).
const ChunkAlign = 256

// DefaultChunkRows is the chunk size used when a caller does not choose
// one: 8192 rows × 8 bytes is 64 KiB per column per chunk — large enough
// to amortize a fault, small enough that a handful of resident chunks fit
// tight memory budgets.
const DefaultChunkRows = 8192

// ChunkStore is a dataset's physical column storage: NumRows rows split
// into fixed-size chunks of ChunkRows rows each (the final chunk may be
// partial). Chunk c covers global rows [c·ChunkRows, min((c+1)·ChunkRows,
// NumRows)).
//
// Acquire returns chunk c as a column-major Columns block indexed by
// chunk-local row, pinning it resident until the matching Release. For the
// in-memory and mmap backings pin/release are no-ops; the bounded cache
// uses the pin to keep a chunk from being evicted while a kernel walks it.
// Acquire and Release are safe for concurrent use; the returned Columns is
// immutable and safe for concurrent readers while pinned.
type ChunkStore interface {
	NumRows() int
	NumAttrs() int
	ChunkRows() int
	NumChunks() int
	Acquire(c int) *Columns
	Release(c int)
}

// NumChunksFor returns how many chunks of cr rows cover n rows.
func NumChunksFor(n, cr int) int {
	if n <= 0 {
		return 0
	}
	return (n + cr - 1) / cr
}

// ValidateChunkRows checks a chunk size: positive and ChunkAlign-aligned,
// so kernel blocks never straddle a chunk boundary.
func ValidateChunkRows(cr int) error {
	if cr <= 0 || cr%ChunkAlign != 0 {
		return fmt.Errorf("dataset: chunk size %d is not a positive multiple of %d", cr, ChunkAlign)
	}
	return nil
}

// memChunkStore is the in-memory chunk grid: fixed-size windows of one
// column block. Chunks alias the block's columns, so the store adds only
// slice headers.
type memChunkStore struct {
	rows      int
	na        int
	chunkRows int
	chunks    []Columns
}

// ChunkColumns slices a column block into an in-memory chunk store with
// the given chunk size (which must satisfy ValidateChunkRows).
func ChunkColumns(cols *Columns, chunkRows int) (ChunkStore, error) {
	if err := ValidateChunkRows(chunkRows); err != nil {
		return nil, err
	}
	n := cols.N()
	nc := NumChunksFor(n, chunkRows)
	st := &memChunkStore{rows: n, na: cols.NumAttrs(), chunkRows: chunkRows, chunks: make([]Columns, nc)}
	for c := 0; c < nc; c++ {
		lo := c * chunkRows
		hi := lo + chunkRows
		if hi > n {
			hi = n
		}
		st.chunks[c] = cols.window(lo, hi)
	}
	return st, nil
}

func (m *memChunkStore) NumRows() int           { return m.rows }
func (m *memChunkStore) NumAttrs() int          { return m.na }
func (m *memChunkStore) ChunkRows() int         { return m.chunkRows }
func (m *memChunkStore) NumChunks() int         { return len(m.chunks) }
func (m *memChunkStore) Acquire(c int) *Columns { return &m.chunks[c] }
func (m *memChunkStore) Release(int)            {}

// ChunkSrc locates a view inside a chunk store: the store plus the global
// row index of the view's first row. Base must be ChunkAlign-aligned so
// that view-local kernel blocks stay chunk-contained; View.ChunkSrc
// enforces this.
type ChunkSrc struct {
	Store ChunkStore
	// Base is the global row the view's row 0 maps to.
	Base int
}

// ChunkCursor walks a ChunkSrc block by block, holding (pinning) exactly
// the chunk under the cursor. One cursor belongs to one goroutine; the
// engine gives each worker its own. The steady-state Block call performs
// no allocation: advancing to a new chunk is one Release and one Acquire.
type ChunkCursor struct {
	src  ChunkSrc
	cur  int // current chunk index, -1 when none pinned
	cols *Columns
}

// Reset points the cursor at a source, releasing any pinned chunk first.
func (cc *ChunkCursor) Reset(src ChunkSrc) {
	cc.Close()
	cc.src = src
	cc.cur = -1
	cc.cols = nil
}

// Block resolves the view-local row range [lo, hi) to its chunk: the
// pinned Columns block plus the chunk-local range [clo, chi). The range
// must be ChunkAlign-contained — guaranteed for kernel blocks over an
// aligned ChunkSrc — or Block panics.
func (cc *ChunkCursor) Block(lo, hi int) (cols *Columns, clo, chi int) {
	cr := cc.src.Store.ChunkRows()
	g := cc.src.Base + lo
	c := g / cr
	clo = g - c*cr
	chi = clo + (hi - lo)
	if chi > cr {
		panic(fmt.Sprintf("dataset: block [%d,%d) straddles the %d-row chunk grid", lo, hi, cr))
	}
	if c != cc.cur || cc.cols == nil {
		if cc.cols != nil {
			cc.src.Store.Release(cc.cur)
		}
		cc.cols = cc.src.Store.Acquire(c)
		cc.cur = c
	}
	return cc.cols, clo, chi
}

// Close releases the pinned chunk, if any. It is safe on the zero value;
// the cursor may be Reset and reused afterwards.
func (cc *ChunkCursor) Close() {
	if cc.cols != nil {
		cc.src.Store.Release(cc.cur)
		cc.cur = -1
		cc.cols = nil
	}
}

// AlignedBlockPartition splits n rows into p contiguous blocks like
// BlockPartition, but with every boundary (except the final row count
// itself) a multiple of align. Chunk-backed datasets partition this way so
// each rank's view starts on the chunk grid and the blocked kernels stay
// chunk-contained; alignment uses ChunkAlign — not the chunk size — so the
// partition, and with it the search trajectory, is identical for every
// chunk size.
func AlignedBlockPartition(n, p, align int) ([]Range, error) {
	if align <= 0 {
		return nil, fmt.Errorf("dataset: partition alignment %d", align)
	}
	units := (n + align - 1) / align
	parts, err := BlockPartition(units, p)
	if err != nil {
		return nil, err
	}
	for r := range parts {
		parts[r].Lo *= align
		parts[r].Hi *= align
		if parts[r].Lo > n {
			parts[r].Lo = n
		}
		if parts[r].Hi > n {
			parts[r].Hi = n
		}
	}
	return parts, nil
}
