package dataset

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func writeChunkFixture(t testing.TB, n, chunkRows int) (path string, ds *Dataset) {
	t.Helper()
	ds = mkMixedDataset(t, n)
	path = filepath.Join(t.TempDir(), "fixture.chunks")
	if err := WriteChunked(path, ds, chunkRows); err != nil {
		t.Fatalf("WriteChunked: %v", err)
	}
	return path, ds
}

// TestChunkFileRoundtrip opens the same file under every backing and
// checks bitwise equality with the source dataset — values, missing
// masks, schema, chunk structure.
func TestChunkFileRoundtrip(t *testing.T) {
	for _, tc := range []struct{ n, cr int }{
		{1, 256}, {256, 256}, {1000, 256}, {5000, 1024},
	} {
		path, ds := writeChunkFixture(t, tc.n, tc.cr)
		mono := ds.All().Columns()
		for _, mode := range []struct {
			name string
			opts ChunkOptions
		}{
			{"inmemory", ChunkOptions{Mode: ChunkInMemory}},
			{"mmap", ChunkOptions{Mode: ChunkMmap}},
			{"cached", ChunkOptions{Mode: ChunkCached, Chunks: 2}},
			{"auto", ChunkOptions{}},
		} {
			t.Run(fmt.Sprintf("n%d_cr%d_%s", tc.n, tc.cr, mode.name), func(t *testing.T) {
				vd, err := OpenChunked(path, mode.opts)
				if err != nil {
					t.Fatalf("OpenChunked: %v", err)
				}
				defer func() {
					if err := vd.Close(); err != nil {
						t.Errorf("Close: %v", err)
					}
				}()
				if !vd.Chunked() {
					t.Fatal("not chunk-backed")
				}
				if vd.Name != ds.Name || vd.N() != tc.n || vd.NumAttrs() != ds.NumAttrs() {
					t.Fatalf("shape: %q %d×%d", vd.Name, vd.N(), vd.NumAttrs())
				}
				for k := 0; k < ds.NumAttrs(); k++ {
					a, b := ds.Attr(k), vd.Attr(k)
					if a.Name != b.Name || a.Type != b.Type || len(a.Levels) != len(b.Levels) {
						t.Fatalf("attr %d schema differs", k)
					}
				}
				st := vd.ChunkStore()
				if st.ChunkRows() != tc.cr || st.NumChunks() != NumChunksFor(tc.n, tc.cr) {
					t.Fatalf("chunk grid %d×%d", st.ChunkRows(), st.NumChunks())
				}
				for c := 0; c < st.NumChunks(); c++ {
					cols := st.Acquire(c)
					base := c * tc.cr
					for k := 0; k < ds.NumAttrs(); k++ {
						got := cols.Col(k)
						want := mono.Col(k)[base : base+cols.N()]
						for i := range got {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Fatalf("chunk %d attr %d row %d: %x != %x",
									c, k, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
							}
							if cols.HasMissing(k) != (mono.HasMissing(k) && anyMissing(want)) {
								t.Fatalf("chunk %d attr %d: mask presence", c, k)
							}
							if cols.HasMissing(k) && cols.Missing(k)[i] != IsMissing(got[i]) {
								t.Fatalf("chunk %d attr %d row %d: mask wrong", c, k, i)
							}
						}
					}
					st.Release(c)
				}
				if !vd.Equal(ds) {
					t.Error("Equal(roundtrip, source) = false")
				}
			})
		}
	}
}

func anyMissing(v []float64) bool {
	for _, x := range v {
		if IsMissing(x) {
			return true
		}
	}
	return false
}

// TestWriteChunkedFromChunked re-chunks a virtual dataset to a different
// chunk size through the row path.
func TestWriteChunkedFromChunked(t *testing.T) {
	path, ds := writeChunkFixture(t, 2000, 512)
	vd, err := OpenChunked(path, ChunkOptions{Mode: ChunkCached, Chunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer vd.Close()
	path2 := filepath.Join(t.TempDir(), "rechunked.chunks")
	if err := WriteChunked(path2, vd, 256); err != nil {
		t.Fatal(err)
	}
	vd2, err := OpenChunked(path2, ChunkOptions{Mode: ChunkInMemory})
	if err != nil {
		t.Fatal(err)
	}
	defer vd2.Close()
	if vd2.ChunkStore().ChunkRows() != 256 {
		t.Fatalf("chunkRows=%d", vd2.ChunkStore().ChunkRows())
	}
	if !vd2.Equal(ds) {
		t.Error("re-chunked dataset differs from source")
	}
}

// TestChunkFileRejects covers the failure modes a reader must catch.
func TestChunkFileRejects(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := OpenChunked(write("short", []byte("PACH")), ChunkOptions{}); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := OpenChunked(write("magic", make([]byte, 64)), ChunkOptions{}); err == nil {
		t.Error("bad magic accepted")
	}
	// An unsealed file: valid header but metaOff still zero.
	path, _ := writeChunkFixture(t, 300, 256)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	unsealed := append([]byte(nil), b...)
	for i := 16; i < 24; i++ {
		unsealed[i] = 0
	}
	if _, err := OpenChunked(write("unsealed", unsealed), ChunkOptions{}); err == nil {
		t.Error("unsealed file accepted")
	}
	// Foreign endianness probe.
	foreign := append([]byte(nil), b...)
	foreign[8], foreign[9], foreign[10], foreign[11] = foreign[11], foreign[10], foreign[9], foreign[8]
	if _, err := OpenChunked(write("foreign", foreign), ChunkOptions{}); err == nil {
		t.Error("foreign-endian file accepted")
	}
}

// TestCachedStoreResidency pins the bounded-residency contract: walking
// every chunk through a B-slot cache never holds more than B chunks
// resident, and revisits hit the cache.
func TestCachedStoreResidency(t *testing.T) {
	path, _ := writeChunkFixture(t, 8*256, 256) // 8 chunks
	const B = 3
	vd, err := OpenChunked(path, ChunkOptions{Mode: ChunkCached, Chunks: B})
	if err != nil {
		t.Fatal(err)
	}
	defer vd.Close()
	cs := vd.ChunkStore().(*cachedStore)
	for pass := 0; pass < 3; pass++ {
		for c := 0; c < cs.NumChunks(); c++ {
			cols := cs.Acquire(c)
			if cols.N() != 256 {
				t.Fatalf("chunk %d: %d rows", c, cols.N())
			}
			cs.Release(c)
			if st := cs.Stats(); st.Resident > B || st.HighWater > B {
				t.Fatalf("pass %d chunk %d: resident %d high-water %d over budget %d",
					pass, c, st.Resident, st.HighWater, B)
			}
		}
	}
	// Re-acquiring the last-touched chunk must hit.
	last := cs.NumChunks() - 1
	cs.Acquire(last)
	cs.Release(last)
	st := cs.Stats()
	if st.Hits == 0 {
		t.Error("re-acquiring a resident chunk did not hit the cache")
	}
	if st.Loads < uint64(cs.NumChunks()) {
		t.Errorf("loads %d < %d chunks", st.Loads, cs.NumChunks())
	}
	if st.Evictions == 0 {
		t.Error("8 chunks through 3 slots with no evictions")
	}
}

// TestCachedStoreOvershoot: with every slot pinned, an extra Acquire must
// overshoot (not deadlock) and the frame must be freed at Release.
func TestCachedStoreOvershoot(t *testing.T) {
	path, _ := writeChunkFixture(t, 6*256, 256)
	vd, err := OpenChunked(path, ChunkOptions{Mode: ChunkCached, Chunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer vd.Close()
	cs := vd.ChunkStore().(*cachedStore)
	cs.Acquire(0)
	cs.Acquire(1)
	cs.Acquire(2) // budget exhausted: transient third frame
	st := cs.Stats()
	if st.Resident != 3 || st.HighWater != 3 {
		t.Fatalf("resident %d high-water %d, want 3/3", st.Resident, st.HighWater)
	}
	cs.Release(2)
	if st := cs.Stats(); st.Resident != 2 {
		t.Fatalf("overshoot frame not freed: resident %d", st.Resident)
	}
	cs.Release(0)
	cs.Release(1)
	if st := cs.Stats(); st.Resident != 2 || st.HighWater != 3 {
		t.Fatalf("final resident %d high-water %d", st.Resident, st.HighWater)
	}
}

// TestCachedStoreConcurrent hammers a small cache from many goroutines
// (run under -race in CI): every read must see the right chunk's bytes.
func TestCachedStoreConcurrent(t *testing.T) {
	nChunks := 10
	path, ds := writeChunkFixture(t, nChunks*256, 256)
	vd, err := OpenChunked(path, ChunkOptions{Mode: ChunkCached, Chunks: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer vd.Close()
	cs := vd.ChunkStore()
	mono := ds.All().Columns()
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 50; it++ {
				c := (g*7 + it*3) % nChunks
				cols := cs.Acquire(c)
				want := mono.Col(0)[c*256]
				if got := cols.Col(0)[0]; math.Float64bits(got) != math.Float64bits(want) {
					select {
					case errCh <- fmt.Errorf("goroutine %d chunk %d: %v != %v", g, c, got, want):
					default:
					}
				}
				cs.Release(c)
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestCachedStoreZeroAllocFault: once the frames are warm, faulting a
// chunk in and out of the cache allocates nothing.
func TestCachedStoreZeroAllocFault(t *testing.T) {
	path, _ := writeChunkFixture(t, 6*256, 256)
	vd, err := OpenChunked(path, ChunkOptions{Mode: ChunkCached, Chunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer vd.Close()
	cs := vd.ChunkStore()
	// Warm every frame.
	for pass := 0; pass < 2; pass++ {
		for c := 0; c < cs.NumChunks(); c++ {
			cs.Acquire(c)
			cs.Release(c)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for c := 0; c < cs.NumChunks(); c++ {
			cols := cs.Acquire(c)
			if cols.N() == 0 {
				t.Fatal("empty chunk")
			}
			cs.Release(c)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state chunk faults allocate %v times per pass", allocs)
	}
}

// TestMmapStoreSharedAcrossOpens: two opens of the same file see the same
// bytes (sanity for the kill/resume story, where a restarted process
// re-opens the mapping).
func TestMmapReopenStable(t *testing.T) {
	path, ds := writeChunkFixture(t, 1500, 512)
	open := func() *Dataset {
		vd, err := OpenChunked(path, ChunkOptions{Mode: ChunkMmap})
		if err != nil {
			t.Skipf("mmap unavailable: %v", err)
		}
		return vd
	}
	a := open()
	b := open()
	defer a.Close()
	defer b.Close()
	if !a.Equal(ds) || !b.Equal(a) {
		t.Error("re-opened mapping differs")
	}
}

// patchChunkValue rewrites row i of attribute k in chunk c of the chunk
// file at path to v, in place.
func patchChunkValue(t *testing.T, path string, c, k, i int, v float64) {
	t.Helper()
	cf, err := openChunkFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := cf.offs[c] + cf.flagsPad() + (int64(k)*int64(cf.rowsOf(c))+int64(i))*8
	cf.Close()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(bytesOfF64([]float64{v}), off); err != nil {
		t.Fatal(err)
	}
}

// TestOpenChunkedRejectsBadDiscreteCodes: a discrete value that is not a
// level index, or a NaN in a chunk that stores no missing mask for its
// column, makes OpenChunked return an error naming the chunk, the
// attribute and the row in every backing — instead of a panic later in
// Summarize or the multinomial kernel.
func TestOpenChunkedRejectsBadDiscreteCodes(t *testing.T) {
	ds := MustNew("nomiss", []Attribute{
		{Name: "x", Type: Real},
		{Name: "sstate", Type: Discrete, Levels: []string{"h", "e", "c"}},
	})
	for i := 0; i < 600; i++ {
		if err := ds.AppendRow([]float64{float64(i), float64(i % 3)}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name      string
		chunk, i  int
		v         float64
		wantError string
	}{
		{"level out of range", 1, 3, 7, `chunk 1, attribute "sstate", row 259: value 7 is not a level index`},
		{"fractional level", 2, 0, 1.5, `chunk 2, attribute "sstate", row 512: value 1.5 is not a level index`},
		{"missing without mask", 0, 0, math.NaN(), `chunk 0, attribute "sstate", row 0: missing value but the chunk stores no missing mask`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.chunks")
			if err := WriteChunked(path, ds, 256); err != nil {
				t.Fatal(err)
			}
			patchChunkValue(t, path, tc.chunk, 1, tc.i, tc.v)
			for _, mode := range []ChunkMode{ChunkAuto, ChunkInMemory, ChunkMmap, ChunkCached} {
				d, err := OpenChunked(path, ChunkOptions{Mode: mode})
				if err == nil {
					d.Close()
					t.Fatalf("mode %d: bad discrete value accepted", mode)
				}
				if !strings.Contains(err.Error(), tc.wantError) {
					t.Fatalf("mode %d: error %q does not contain %q", mode, err, tc.wantError)
				}
			}
		})
	}
}

// FuzzOpenChunked: any bytes, written to a file, either fail to open or
// open as a chunk-backed dataset whose chunks can all be walked and
// summarized — in the eager and the bounded-cache backing — without a
// panic. The seed corpus holds valid files, files with bad discrete
// codes, and truncated or inconsistent layouts.
func FuzzOpenChunked(f *testing.F) {
	path, _ := writeChunkFixture(f, 20, 256)
	b, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.chunks")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []ChunkMode{ChunkInMemory, ChunkCached} {
			d, err := OpenChunked(p, ChunkOptions{Mode: mode})
			if err != nil {
				continue
			}
			d.Summarize()
			st := d.ChunkStore()
			for c := 0; c < st.NumChunks(); c++ {
				cols := st.Acquire(c)
				for k := 0; k < cols.NumAttrs(); k++ {
					_ = cols.Col(k)[:cols.N()]
				}
				st.Release(c)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
