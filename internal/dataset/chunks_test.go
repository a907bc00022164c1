package dataset

import (
	"math"
	"testing"
)

// mkMixedDataset builds a dataset with real and discrete attributes and a
// deterministic sprinkle of missing values: one column fully known, one
// with sparse misses so chunk windows exercise both mask states.
func mkMixedDataset(t testing.TB, n int) *Dataset {
	t.Helper()
	ds := MustNew("mixed", []Attribute{
		{Name: "x", Type: Real},
		{Name: "y", Type: Real},
		{Name: "c", Type: Discrete, Levels: []string{"a", "b", "c"}},
	})
	ds.Grow(n)
	row := make([]float64, 3)
	for i := 0; i < n; i++ {
		row[0] = math.Sin(float64(i)) * 10
		row[1] = float64(i % 97)
		row[2] = float64(i % 3)
		if i%37 == 5 {
			row[1] = Missing
		}
		if i%53 == 11 {
			row[2] = Missing
		}
		if err := ds.AppendRow(row); err != nil {
			t.Fatalf("append row %d: %v", i, err)
		}
	}
	return ds
}

// sameFloat treats NaN==NaN (bitwise equality for our value domain).
func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// TestChunkColumnsMatchesMonolithic is the chunked ≡ monolithic property:
// for several chunk sizes (including ones that leave a partial final chunk)
// every chunk window must mirror the monolithic Columns bitwise — values
// and missing masks — for every attribute kind.
func TestChunkColumnsMatchesMonolithic(t *testing.T) {
	for _, n := range []int{1, 255, 256, 257, 1000, 4096, 5000} {
		ds := mkMixedDataset(t, n)
		mono := ds.All().Columns()
		for _, cr := range []int{256, 512, 1024, 4096} {
			st, err := ChunkColumns(mono, cr)
			if err != nil {
				t.Fatalf("n=%d cr=%d: %v", n, cr, err)
			}
			if got, want := st.NumChunks(), NumChunksFor(n, cr); got != want {
				t.Fatalf("n=%d cr=%d: NumChunks=%d want %d", n, cr, got, want)
			}
			if st.NumRows() != n || st.NumAttrs() != ds.NumAttrs() {
				t.Fatalf("n=%d: store dims %d×%d", n, st.NumRows(), st.NumAttrs())
			}
			covered := 0
			for c := 0; c < st.NumChunks(); c++ {
				cols := st.Acquire(c)
				base := c * cr
				for k := 0; k < ds.NumAttrs(); k++ {
					col := cols.Col(k)
					monoCol := mono.Col(k)[base : base+cols.N()]
					for i := range col {
						if math.Float64bits(col[i]) != math.Float64bits(monoCol[i]) {
							t.Fatalf("n=%d cr=%d chunk %d attr %d row %d: %v != %v",
								n, cr, c, k, i, col[i], monoCol[i])
						}
					}
					// Mask must agree with the values inside the window;
					// it may legitimately be nil when the window has no
					// missing value even though the full column does.
					anyMiss := false
					for i, v := range col {
						m := IsMissing(v)
						anyMiss = anyMiss || m
						if cols.HasMissing(k) && cols.Missing(k)[i] != m {
							t.Fatalf("n=%d cr=%d chunk %d attr %d row %d: mask %v value %v",
								n, cr, c, k, i, cols.Missing(k)[i], v)
						}
					}
					if anyMiss && !cols.HasMissing(k) {
						t.Fatalf("n=%d cr=%d chunk %d attr %d: missing values but nil mask", n, cr, c, k)
					}
				}
				covered += cols.N()
				st.Release(c)
			}
			if covered != n {
				t.Fatalf("n=%d cr=%d: chunks cover %d rows", n, cr, covered)
			}
		}
	}
}

func TestValidateChunkRows(t *testing.T) {
	for _, cr := range []int{256, 512, 2560, 8192} {
		if err := ValidateChunkRows(cr); err != nil {
			t.Errorf("ValidateChunkRows(%d) = %v", cr, err)
		}
	}
	for _, cr := range []int{0, -256, 1, 255, 257, 300} {
		if err := ValidateChunkRows(cr); err == nil {
			t.Errorf("ValidateChunkRows(%d) accepted", cr)
		}
	}
}

// countingStore wraps a ChunkStore and counts Acquire/Release calls so the
// cursor's pin discipline is observable.
type countingStore struct {
	ChunkStore
	acquires, releases int
}

func (s *countingStore) Acquire(c int) *Columns { s.acquires++; return s.ChunkStore.Acquire(c) }
func (s *countingStore) Release(c int)          { s.releases++; s.ChunkStore.Release(c) }

func TestChunkCursor(t *testing.T) {
	n := 1300
	ds := mkMixedDataset(t, n)
	inner, err := ChunkColumns(ds.All().Columns(), 512)
	if err != nil {
		t.Fatal(err)
	}
	st := &countingStore{ChunkStore: inner}
	var cc ChunkCursor
	cc.Reset(ChunkSrc{Store: st})
	mono := ds.All().Columns()
	for lo := 0; lo < n; lo += ChunkAlign {
		hi := lo + ChunkAlign
		if hi > n {
			hi = n
		}
		cols, clo, chi := cc.Block(lo, hi)
		if chi-clo != hi-lo {
			t.Fatalf("block [%d,%d): local [%d,%d)", lo, hi, clo, chi)
		}
		for k := 0; k < ds.NumAttrs(); k++ {
			got := cols.Col(k)[clo:chi]
			want := mono.Col(k)[lo:hi]
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("block [%d,%d) attr %d row %d: %v != %v", lo, hi, k, i, got[i], want[i])
				}
			}
		}
	}
	cc.Close()
	if st.acquires != inner.NumChunks() {
		t.Errorf("cursor acquired %d times over %d chunks", st.acquires, inner.NumChunks())
	}
	if st.releases != st.acquires {
		t.Errorf("acquires %d != releases %d after Close", st.acquires, st.releases)
	}
	// Double Close is a no-op.
	cc.Close()
	if st.releases != st.acquires {
		t.Errorf("double Close released again")
	}
}

func TestChunkCursorBase(t *testing.T) {
	n := 2048
	ds := mkMixedDataset(t, n)
	st, err := ChunkColumns(ds.All().Columns(), 512)
	if err != nil {
		t.Fatal(err)
	}
	// A cursor over the second half, addressed by view-local rows.
	base := 1024
	var cc ChunkCursor
	cc.Reset(ChunkSrc{Store: st, Base: base})
	defer cc.Close()
	mono := ds.All().Columns()
	for lo := 0; lo < n-base; lo += ChunkAlign {
		cols, clo, chi := cc.Block(lo, lo+ChunkAlign)
		got := cols.Col(0)[clo:chi]
		want := mono.Col(0)[base+lo : base+lo+ChunkAlign]
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("base=%d block %d row %d: %v != %v", base, lo, i, got[i], want[i])
			}
		}
	}
}

func TestChunkCursorStraddlePanics(t *testing.T) {
	ds := mkMixedDataset(t, 1024)
	st, err := ChunkColumns(ds.All().Columns(), 512)
	if err != nil {
		t.Fatal(err)
	}
	var cc ChunkCursor
	cc.Reset(ChunkSrc{Store: st})
	defer cc.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("straddling block did not panic")
		}
	}()
	cc.Block(256, 768) // crosses the 512-row chunk boundary
}

func TestAlignedBlockPartition(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 1000, 4096, 100003} {
		for _, p := range []int{1, 2, 3, 7, 16} {
			parts, err := AlignedBlockPartition(n, p, ChunkAlign)
			if err != nil {
				t.Fatalf("n=%d p=%d: %v", n, p, err)
			}
			if len(parts) != p {
				t.Fatalf("n=%d p=%d: %d parts", n, p, len(parts))
			}
			lo := 0
			for r, rg := range parts {
				if rg.Lo != lo {
					t.Fatalf("n=%d p=%d rank %d: gap at %d (Lo=%d)", n, p, r, lo, rg.Lo)
				}
				// Every non-empty block starts on the grid; empty tail
				// blocks collapse to [n, n), which may sit off grid.
				if rg.Len() > 0 && rg.Lo%ChunkAlign != 0 {
					t.Fatalf("n=%d p=%d rank %d: Lo=%d off grid", n, p, r, rg.Lo)
				}
				if rg.Hi < rg.Lo {
					t.Fatalf("n=%d p=%d rank %d: inverted range %+v", n, p, r, rg)
				}
				lo = rg.Hi
			}
			if lo != n {
				t.Fatalf("n=%d p=%d: covers %d rows", n, p, lo)
			}
		}
	}
	if _, err := AlignedBlockPartition(100, 2, 0); err == nil {
		t.Error("align=0 accepted")
	}
}

// TestVirtualDataset covers the chunk-backed dataset mode built over the
// in-memory store: Value/RowTo/Summarize/Head/Equal must agree with the
// in-memory original, and AppendRow must refuse.
func TestVirtualDataset(t *testing.T) {
	n := 1500
	ds := mkMixedDataset(t, n)
	st, err := ChunkColumns(ds.All().Columns(), 512)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	vd, err := fromChunks(ds.Name, ds.Attrs(), st, func() error { closed = true; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !vd.Chunked() || vd.ChunkStore() != st {
		t.Fatal("virtual dataset not chunk-backed")
	}
	if vd.N() != n {
		t.Fatalf("N=%d want %d", vd.N(), n)
	}
	for _, i := range []int{0, 511, 512, 1023, 1024, n - 1} {
		for k := 0; k < ds.NumAttrs(); k++ {
			if !sameFloat(vd.Value(i, k), ds.Value(i, k)) {
				t.Fatalf("Value(%d,%d): %v != %v", i, k, vd.Value(i, k), ds.Value(i, k))
			}
		}
		got := vd.RowTo(nil, i)
		want := ds.RowTo(nil, i)
		for k := range got {
			if !sameFloat(got[k], want[k]) {
				t.Fatalf("RowTo(%d)[%d]: %v != %v", i, k, got[k], want[k])
			}
		}
	}
	if err := vd.AppendRow(make([]float64, ds.NumAttrs())); err == nil {
		t.Error("AppendRow on virtual dataset accepted")
	}

	// Summaries must be bitwise identical: priors derive from them.
	a, b := ds.Summarize(), vd.Summarize()
	if a.N != b.N {
		t.Fatalf("summary N: %d != %d", a.N, b.N)
	}
	for k := range a.Real {
		if a.Real[k] != b.Real[k] || a.LogReal[k] != b.LogReal[k] {
			t.Fatalf("attr %d: moments differ: %+v %+v vs %+v %+v", k, a.Real[k], a.LogReal[k], b.Real[k], b.LogReal[k])
		}
		if a.MissingCount[k] != b.MissingCount[k] || a.NonPositive[k] != b.NonPositive[k] {
			t.Fatalf("attr %d: counts differ", k)
		}
		if !sameFloat(a.Min[k], b.Min[k]) || !sameFloat(a.Max[k], b.Max[k]) {
			t.Fatalf("attr %d: min/max differ", k)
		}
		for v := range a.Counts[k] {
			if a.Counts[k][v] != b.Counts[k][v] {
				t.Fatalf("attr %d level %d: count differs", k, v)
			}
		}
	}

	// Head materializes; Equal bridges the modes.
	if !vd.Equal(ds) || !ds.Equal(vd) {
		t.Error("Equal(virtual, materialized) = false")
	}
	h := vd.Head(700)
	if h.Chunked() {
		t.Error("Head of virtual dataset is still chunk-backed")
	}
	if !h.Equal(ds.Head(700)) {
		t.Error("Head(700) differs across modes")
	}
	cl := vd.Clone()
	if cl.Chunked() || !cl.Equal(ds) {
		t.Error("Clone of virtual dataset wrong")
	}

	if err := vd.Close(); err != nil || !closed {
		t.Fatalf("Close: err=%v closed=%v", err, closed)
	}
	if err := vd.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestViewChunkSrc covers both sides of View.ChunkSrc: the in-memory
// path (store of windows of the view's columns, cached) and the
// chunk-backed path (dataset's own store, Base = view start, grid check).
func TestViewChunkSrc(t *testing.T) {
	ds := mkMixedDataset(t, 2000)
	v := ds.All()
	src, err := v.ChunkSrc()
	if err != nil {
		t.Fatal(err)
	}
	if src.Base != 0 || src.Store.NumRows() != 2000 {
		t.Fatalf("in-memory src %+v", src)
	}
	src2, _ := v.ChunkSrc()
	if src2.Store != src.Store {
		t.Error("ChunkSrc not cached on the view")
	}

	st, err := ChunkColumns(ds.All().Columns(), 512)
	if err != nil {
		t.Fatal(err)
	}
	vd, err := fromChunks(ds.Name, ds.Attrs(), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	vv, err := vd.View(512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	vsrc, err := vv.ChunkSrc()
	if err != nil {
		t.Fatal(err)
	}
	if vsrc.Store != st || vsrc.Base != 512 {
		t.Fatalf("chunk-backed src %+v", vsrc)
	}
	bad, err := vd.View(100, 500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.ChunkSrc(); err == nil {
		t.Error("off-grid view accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Columns on chunk-backed dataset did not panic")
			}
		}()
		vv.Columns()
	}()
}

// TestWindowMask pins the window-mask rule: a window of a column with
// misses elsewhere drops the mask; a window containing a miss keeps it.
func TestWindowMask(t *testing.T) {
	ds := MustNew("w", []Attribute{{Name: "x", Type: Real}})
	for i := 0; i < 600; i++ {
		v := float64(i)
		if i == 400 {
			v = Missing
		}
		if err := ds.AppendRow([]float64{v}); err != nil {
			t.Fatal(err)
		}
	}
	cols := ds.All().Columns()
	clean := cols.window(0, 256)
	if clean.HasMissing(0) {
		t.Error("miss-free window kept the mask")
	}
	dirty := cols.window(256, 600)
	if !dirty.HasMissing(0) {
		t.Fatal("window with a miss dropped the mask")
	}
	if !dirty.Missing(0)[400-256] || dirty.Missing(0)[0] {
		t.Error("window mask misaligned")
	}
}
