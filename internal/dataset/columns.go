package dataset

import "fmt"

// Columns is a block of rows in column-major layout: one contiguous
// float64 slice per attribute plus a missing-value mask per column. It is
// the data layout behind the engine's blocked kernels — evaluating one
// (class, term) over a block of rows walks a single contiguous column
// instead of striding across attributes, and the per-column mask lets
// kernels test missingness without re-deriving it per term.
//
// A Columns handed to readers (a chunk, a view's window) is immutable and
// indexed by block-local row. Missing values keep their NaN encoding in
// the column so kernels may use either the mask or the NaN self-test
// (x != x), whichever is cheaper for their access pattern.
type Columns struct {
	n    int
	cols [][]float64
	// missing[k] is nil when column k has no missing values — the common
	// case, which lets kernels skip the mask entirely.
	missing [][]bool
}

// N returns the number of rows in the block.
func (c *Columns) N() int { return c.n }

// NumAttrs returns the number of columns.
func (c *Columns) NumAttrs() int { return len(c.cols) }

// Col returns attribute k as a contiguous slice of length N(), indexed by
// block-local row. Callers must treat it as read-only.
func (c *Columns) Col(k int) []float64 { return c.cols[k] }

// Missing returns the missing mask of attribute k, or nil when the column
// has no missing values. Callers must treat it as read-only.
func (c *Columns) Missing(k int) []bool { return c.missing[k] }

// HasMissing reports whether attribute k has any missing value.
func (c *Columns) HasMissing(k int) bool { return c.missing[k] != nil }

// appendRow appends one row. A column gets its missing mask when its
// first missing value arrives, sized to the column's capacity, so a fully
// known column never carries one. Both writers of column-major storage —
// an in-memory dataset and a ChunkWriter's open chunk — append through it.
func (c *Columns) appendRow(row []float64) {
	for k, v := range row {
		c.cols[k] = append(c.cols[k], v)
		if m := c.missing[k]; m != nil {
			c.missing[k] = append(m, IsMissing(v))
		} else if IsMissing(v) {
			m = make([]bool, c.n+1, cap(c.cols[k]))
			m[c.n] = true
			c.missing[k] = m
		}
	}
	c.n++
}

// setMissing blanks value k of row i in place, giving the column its mask
// if it had none.
func (c *Columns) setMissing(i, k int) {
	c.cols[k][i] = Missing
	if c.missing[k] == nil {
		c.missing[k] = make([]bool, c.n, cap(c.cols[k]))
	}
	c.missing[k][i] = true
}

// window returns the block covering rows [lo, hi): a Columns value whose
// slices alias the parent's backing arrays. The missing mask of a column
// is carried over only when the window actually contains a missing value,
// so blocks of a sparsely-missing column keep the fast mask-free kernel
// path.
func (c *Columns) window(lo, hi int) Columns {
	w := Columns{
		n:       hi - lo,
		cols:    make([][]float64, len(c.cols)),
		missing: make([][]bool, len(c.cols)),
	}
	for k := range c.cols {
		w.cols[k] = c.cols[k][lo:hi:hi]
		if m := c.missing[k]; m != nil {
			for _, b := range m[lo:hi] {
				if b {
					w.missing[k] = m[lo:hi:hi]
					break
				}
			}
		}
	}
	return w
}

// colStore is the storage of an in-memory dataset: one contiguous slice
// per attribute, served as a single chunk that grows with the dataset.
type colStore struct{ Columns }

func newColStore(na int) *colStore {
	return &colStore{Columns{cols: make([][]float64, na), missing: make([][]bool, na)}}
}

// grow makes room for exactly n more rows in every column and every mask.
func (s *colStore) grow(n int) {
	for k, col := range s.cols {
		if cap(col)-len(col) < n {
			s.cols[k] = append(make([]float64, 0, len(col)+n), col...)
		}
		if m := s.missing[k]; m != nil && cap(m)-len(m) < n {
			s.missing[k] = append(make([]bool, 0, len(m)+n), m...)
		}
	}
}

func (s *colStore) NumRows() int   { return s.n }
func (s *colStore) NumChunks() int { return NumChunksFor(s.n, s.ChunkRows()) }
func (s *colStore) Release(int)    {}

// ChunkRows is the smallest ChunkAlign multiple above the row count, so
// the one chunk covers every row.
func (s *colStore) ChunkRows() int { return (s.n/ChunkAlign + 1) * ChunkAlign }

func (s *colStore) Acquire(c int) *Columns {
	if c != 0 {
		panic(fmt.Sprintf("dataset: chunk %d of a one-chunk store", c))
	}
	return &s.Columns
}

// Columns returns the view's rows as one column-major block: a zero-copy
// window of an in-memory dataset's columns, cut on first use and cached on
// the view. Chunk-backed datasets (which may not fit in RAM) have no
// single block; their data plane is View.ChunkSrc.
func (v *View) Columns() *Columns {
	s := v.ds.own()
	if s == nil {
		panic("dataset: Columns on a chunk-backed dataset; use ChunkSrc")
	}
	v.colsOnce.Do(func() {
		w := s.window(v.start, v.start+v.count)
		v.cols = &w
	})
	return v.cols
}

// ChunkSrc returns the view's chunk plane: the chunk store plus the global
// row offset of the view's first row. For a chunk-backed dataset it is the
// dataset's own store (the view must start on the ChunkAlign grid — block
// partitions of chunk-backed data use AlignedBlockPartition); for an
// in-memory dataset it is an in-memory store of DefaultChunkRows-row
// windows of the view's Columns, on a grid relative to the view's first
// row, cut on first use and cached like Columns.
func (v *View) ChunkSrc() (ChunkSrc, error) {
	v.srcOnce.Do(func() {
		if v.ds.Chunked() {
			// An empty view never resolves a block, so its (possibly
			// off-grid, clamped-tail) start is irrelevant.
			if v.count > 0 && v.start%ChunkAlign != 0 {
				v.srcErr = fmt.Errorf("dataset: chunk-backed view starts at row %d, not on the %d-row grid", v.start, ChunkAlign)
				return
			}
			v.src = ChunkSrc{Store: v.ds.store, Base: v.start}
			return
		}
		st, err := ChunkColumns(v.Columns(), DefaultChunkRows)
		v.src, v.srcErr = ChunkSrc{Store: st}, err
	})
	return v.src, v.srcErr
}
