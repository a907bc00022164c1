package dataset

import (
	"math"
	"testing"
	"unsafe"
)

func columnsTestDS(t *testing.T) *Dataset {
	t.Helper()
	ds := MustNew("cols", []Attribute{
		{Name: "x", Type: Real},
		{Name: "c", Type: Discrete, Levels: []string{"a", "b", "c"}},
		{Name: "y", Type: Real},
	})
	rows := [][]float64{
		{1.5, 0, -2},
		{Missing, 1, 0.25},
		{3.25, 2, Missing},
		{-0.5, Missing, 7},
		{2, 0, 8.5},
	}
	for _, r := range rows {
		if err := ds.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// TestColumnsMirrorsView checks the defining property of the mirror:
// Col(k)[i] equals View.Value(i, k) for every cell (NaN-aware), with the
// missing masks matching exactly and nil for fully known columns.
func TestColumnsMirrorsView(t *testing.T) {
	ds := columnsTestDS(t)
	for _, win := range []struct{ start, count int }{
		{0, ds.N()}, {1, 3}, {2, 0}, {4, 1},
	} {
		v, err := ds.View(win.start, win.count)
		if err != nil {
			t.Fatal(err)
		}
		c := v.Columns()
		if c.N() != win.count || c.NumAttrs() != ds.NumAttrs() {
			t.Fatalf("view [%d,%d): mirror is %d×%d", win.start, win.start+win.count, c.N(), c.NumAttrs())
		}
		for k := 0; k < ds.NumAttrs(); k++ {
			col := c.Col(k)
			if len(col) != win.count {
				t.Fatalf("col %d has %d rows, want %d", k, len(col), win.count)
			}
			anyMissing := false
			for i := 0; i < win.count; i++ {
				want := v.Value(i, k)
				got := col[i]
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("col %d row %d: %v != %v", k, i, got, want)
				}
				isMiss := IsMissing(want)
				anyMissing = anyMissing || isMiss
				if mask := c.Missing(k); (mask != nil && mask[i]) != isMiss {
					t.Fatalf("col %d row %d: mask disagrees with value %v", k, i, want)
				}
			}
			if c.HasMissing(k) != anyMissing {
				t.Fatalf("col %d: HasMissing=%v, values say %v", k, c.HasMissing(k), anyMissing)
			}
			if !anyMissing && c.Missing(k) != nil {
				t.Fatalf("col %d: non-nil mask for fully known column", k)
			}
		}
	}
}

// TestViewsAliasDatasetStorage: views of an in-memory dataset cut their
// Columns and chunk plane out of the dataset's own column storage. Two
// views — one aligned, one starting off the ChunkAlign grid as an SPMD
// rank's may — read the same bytes, on a chunk grid relative to the
// view's first row, and neither copies them.
func TestViewsAliasDatasetStorage(t *testing.T) {
	ds := mkMixedDataset(t, 2*DefaultChunkRows+100)
	own := ds.ChunkStore().Acquire(0)
	defer ds.ChunkStore().Release(0)
	for _, start := range []int{0, 300} {
		v, err := ds.View(start, ds.N()-start)
		if err != nil {
			t.Fatal(err)
		}
		cols := v.Columns()
		if v.Columns() != cols {
			t.Fatalf("view at %d: second Columns() call cut a new window", start)
		}
		src, err := v.ChunkSrc()
		if err != nil {
			t.Fatal(err)
		}
		if src.Base != 0 || src.Store.ChunkRows() != DefaultChunkRows {
			t.Fatalf("view at %d: chunk plane base %d, %d-row chunks", start, src.Base, src.Store.ChunkRows())
		}
		for k := 0; k < ds.NumAttrs(); k++ {
			if unsafe.SliceData(cols.Col(k)) != &own.Col(k)[start] {
				t.Fatalf("view at %d: Columns().Col(%d) does not alias the dataset's column", start, k)
			}
			for c := 0; c < src.Store.NumChunks(); c++ {
				g := start + c*DefaultChunkRows
				ch := src.Store.Acquire(c)
				if unsafe.SliceData(ch.Col(k)) != &own.Col(k)[g] {
					t.Errorf("view at %d, chunk %d: column %d does not alias the dataset's column", start, c, k)
				}
				if m := ch.Missing(k); m != nil && unsafe.SliceData(m) != &own.Missing(k)[g] {
					t.Errorf("view at %d, chunk %d: mask %d does not alias the dataset's mask", start, c, k)
				}
				src.Store.Release(c)
			}
		}
	}
}
