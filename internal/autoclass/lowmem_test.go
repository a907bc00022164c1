package autoclass

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// mixedMissDS returns a mixed real+discrete dataset with injected missing
// values — every term kind and the mask plumbing on one workload.
func mixedMissDS(t testing.TB, n int) *dataset.Dataset {
	t.Helper()
	ds, _, err := datagen.ProteinMixture().Generate(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := datagen.InjectMissing(ds, 0.03, 11); err != nil {
		t.Fatal(err)
	}
	return ds
}

// trainTrajectory runs InitRandom + Run on the given dataset and returns
// the per-cycle posterior history plus the final classification.
func trainTrajectory(t testing.TB, ds *dataset.Dataset, j int, cfg Config, seed uint64) ([]float64, *Classification) {
	t.Helper()
	cls := mustClassification(t, ds, j)
	eng, err := NewEngine(ds.All(), cls, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InitRandom(seed); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.History, cls
}

// sameBits fails unless a and b are bitwise-identical float64 sequences.
func sameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d != %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d]: %x (%v) != %x (%v)", what, i,
				math.Float64bits(a[i]), a[i], math.Float64bits(b[i]), b[i])
		}
	}
}

// sameClassification fails unless the two classifications' numeric state
// is bitwise identical (weights, mixing weights, posterior).
func sameClassification(t *testing.T, a, b *Classification) {
	t.Helper()
	if a.J() != b.J() {
		t.Fatalf("J %d != %d", a.J(), b.J())
	}
	for cj := range a.Classes {
		sameBits(t, fmt.Sprintf("class %d {W, LogPi}", cj),
			[]float64{a.Classes[cj].W, a.Classes[cj].LogPi},
			[]float64{b.Classes[cj].W, b.Classes[cj].LogPi})
	}
	sameBits(t, "{LogLik, LogPost}", []float64{a.LogLik, a.LogPost}, []float64{b.LogLik, b.LogPost})
}

// cachedChunks is the residency cap of chunkBackings' file-cached backing.
const cachedChunks = 2

// chunkBackings opens the dataset under every chunk backing: the in-memory
// store over the materialized columns, and the chunk file under its three
// modes. The returned datasets present identical rows.
func chunkBackings(t *testing.T, ds *dataset.Dataset, chunkRows int) map[string]*dataset.Dataset {
	t.Helper()
	out := map[string]*dataset.Dataset{}
	mem, err := dataset.ChunkedCopy(ds, chunkRows)
	if err != nil {
		t.Fatal(err)
	}
	out["mem"] = mem
	path := filepath.Join(t.TempDir(), "train.chunks")
	if err := dataset.WriteChunked(path, ds, chunkRows); err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]dataset.ChunkOptions{
		"file-inmemory": {Mode: dataset.ChunkInMemory},
		"file-mmap":     {Mode: dataset.ChunkMmap},
		"file-cached":   {Mode: dataset.ChunkCached, Chunks: cachedChunks},
	} {
		vd, err := dataset.OpenChunked(path, opts)
		if err != nil {
			if name == "file-mmap" {
				t.Logf("mmap unavailable, skipping backing: %v", err)
				continue
			}
			t.Fatal(err)
		}
		t.Cleanup(func() { vd.Close() })
		out[name] = vd
	}
	return out
}

// TestFusedTrainingMatchesClassic is the tentpole property test: training
// on a chunk-backed dataset — any backing, any chunk size, including
// partial final chunks — produces the bitwise-identical trajectory of the
// classic two-pass engine on the materialized dataset. On the file-cached
// backing, when the file holds more chunks than the cache, the pass must
// also page: chunks load and are evicted, residency stays within the cap,
// and every pass after the first hits the chunks the last one left.
func TestFusedTrainingMatchesClassic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 6
	cfg.Parallelism = 1
	for _, n := range []int{1000, 4096} {
		ds := mixedMissDS(t, n)
		wantHist, wantCls := trainTrajectory(t, ds, 4, cfg, 3)
		for _, chunkRows := range []int{256, 512, 1024} {
			for name, vd := range chunkBackings(t, ds, chunkRows) {
				t.Run(fmt.Sprintf("n%d_cr%d_%s", n, chunkRows, name), func(t *testing.T) {
					gotHist, gotCls := trainTrajectory(t, vd, 4, cfg, 3)
					sameBits(t, "history", gotHist, wantHist)
					sameClassification(t, gotCls, wantCls)
					if nc := vd.ChunkStore().NumChunks(); name == "file-cached" && nc > cachedChunks {
						st := vd.ChunkStore().(interface{ Stats() dataset.CacheStats }).Stats()
						if st.Loads == 0 || st.Evictions == 0 || st.HighWater > cachedChunks {
							t.Errorf("cache %+v: want loads and evictions > 0, high water <= %d", st, cachedChunks)
						}
						// Every pass after the first finds cap − 1 chunks
						// still resident from the pass before.
						passes := (st.Hits + st.Loads) / uint64(nc)
						if want := (passes - 1) * (cachedChunks - 1); st.Hits < want {
							t.Errorf("cache %+v over %d passes of %d chunks: want >= %d hits", st, passes, nc, want)
						}
					}
				})
			}
		}
	}
}

// TestFusedParallelismInvariance: on the chunk plane the worker count must
// not change a single bit either — same fixed shard/block grids, same
// ascending merges, per-worker cursors.
func TestFusedParallelismInvariance(t *testing.T) {
	ds := mixedMissDS(t, 3000)
	vd, err := dataset.ChunkedCopy(ds, 512)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxCycles = 5
	cfg.Parallelism = 1
	wantHist, wantCls := trainTrajectory(t, vd, 3, cfg, 9)
	for _, p := range []int{2, 4, -1} {
		cfg.Parallelism = p
		gotHist, gotCls := trainTrajectory(t, vd, 3, cfg, 9)
		sameBits(t, fmt.Sprintf("history(p=%d)", p), gotHist, wantHist)
		sameClassification(t, gotCls, wantCls)
	}
}

// TestInitRandomClassCounts: after InitRandom(seed) each class's W is the
// exact number of the view's rows i that the assignment hash sends to it,
// InitialClass(seed, start+i, J) == cj — the counts the initialization
// pass folds beside its statistics — at one worker and at four, and on the
// chunk plane. The view starts past row 0, so the counts must hash global
// row indices.
func TestInitRandomClassCounts(t *testing.T) {
	ds := paperDS(t, 3*RowShardSize+57)
	cds, err := dataset.ChunkedCopy(ds, 512)
	if err != nil {
		t.Fatal(err)
	}
	const j, seed = 5, 9
	for _, c := range []struct {
		name string
		ds   *dataset.Dataset
		par  int
	}{{"parallelism0", ds, 0}, {"parallelism4", ds, 4}, {"chunked", cds, 0}} {
		view, err := c.ds.View(dataset.ChunkAlign, c.ds.N()-dataset.ChunkAlign-3)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, j)
		for i := 0; i < view.N(); i++ {
			want[InitialClass(seed, view.Start()+i, j)]++
		}
		cfg := DefaultConfig()
		cfg.Parallelism = c.par
		cls := mustClassification(t, c.ds, j)
		eng, err := NewEngine(view, cls, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.InitRandom(seed); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, j)
		for cj, cl := range cls.Classes {
			got[cj] = cl.W
		}
		sameBits(t, c.name+" class counts", got, want)
	}
}

// TestPredictChunkedMatchesMaterialized: batch inference over every chunk
// backing returns bitwise the memberships, MAP assignments and held-out
// log-likelihood of the materialized scorer.
func TestPredictChunkedMatchesMaterialized(t *testing.T) {
	ds := mixedMissDS(t, 2500)
	cfg := DefaultConfig()
	cfg.MaxCycles = 4
	cfg.Parallelism = 1
	_, cls := trainTrajectory(t, ds, 3, cfg, 5)
	want, err := Predict(cls, ds, PredictConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, chunkRows := range []int{256, 1024} {
		for name, vd := range chunkBackings(t, ds, chunkRows) {
			got, err := Predict(cls, vd, PredictConfig{Parallelism: 2})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameBits(t, fmt.Sprintf("cr%d_%s memberships", chunkRows, name), got.Memberships, want.Memberships)
			sameBits(t, fmt.Sprintf("cr%d_%s loglik", chunkRows, name), []float64{got.LogLik}, []float64{want.LogLik})
			for i := range want.MAP {
				if got.MAP[i] != want.MAP[i] {
					t.Fatalf("cr%d_%s MAP[%d]: %d != %d", chunkRows, name, i, got.MAP[i], want.MAP[i])
				}
			}
		}
	}
}

// TestPredictorReuseZeroAlloc is the serving-loop allocation guard: a warm
// Predictor scoring a same-shaped batch into a reused Prediction performs
// zero allocations — kernels are identity-cached and merely refreshed,
// scratch and result buffers are reused.
func TestPredictorReuseZeroAlloc(t *testing.T) {
	ds := mixedMissDS(t, 1200)
	cfg := DefaultConfig()
	cfg.MaxCycles = 3
	cfg.Parallelism = 1
	_, cls := trainTrajectory(t, ds, 3, cfg, 5)
	pr, err := NewPredictor(cls, PredictConfig{})
	if err != nil {
		t.Fatal(err)
	}
	view := ds.All()
	p := &Prediction{}
	for warm := 0; warm < 2; warm++ {
		if err := pr.PredictInto(view, p); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		if err := pr.PredictInto(view, p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm PredictInto allocates %v times per batch", n)
	}
}

// TestFusedSteadyStateZeroAlloc guards the out-of-core hot loop: with a
// warm engine on a bounded-residency (cached) backing, one full fused pass
// over the data — chunk faults included — allocates nothing.
func TestFusedSteadyStateZeroAlloc(t *testing.T) {
	ds := mixedMissDS(t, 6*256)
	path := filepath.Join(t.TempDir(), "alloc.chunks")
	if err := dataset.WriteChunked(path, ds, 256); err != nil {
		t.Fatal(err)
	}
	vd, err := dataset.OpenChunked(path, dataset.ChunkOptions{Mode: dataset.ChunkCached, Chunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer vd.Close()
	cls := mustClassification(t, vd, 3)
	cfg := DefaultConfig()
	cfg.Parallelism = 1
	cfg.PruneClasses = false
	eng, err := NewEngine(vd.All(), cls, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InitRandom(2); err != nil {
		t.Fatal(err)
	}
	// Warm the scratch, kernels, shard buffers and cache frames.
	for warm := 0; warm < 2; warm++ {
		if _, err := eng.BaseCycle(); err != nil {
			t.Fatal(err)
		}
	}
	n := eng.view.N()
	j := eng.cls.J()
	eng.kerns.prepare(eng.cls.Classes)
	offs, total := statOffsets(eng.cls, nil)
	width := j + 1 + total
	bufs := eng.scratch.get(1, width)
	bs := eng.workerScratch(1, j)[0]
	if a := testing.AllocsPerRun(5, func() {
		eng.passRows(0, n, bufs[0], offs, bs)
	}); a != 0 {
		t.Errorf("steady-state fused pass allocates %v times", a)
	}
	eng.closeCursors()
}

// TestFusedKillResume: checkpoint/restore on the mmap backing continues
// the trajectory bitwise — the out-of-core kill/resume story. The
// "killed" run trains through cycle k, its state is snapshotted, the file
// is re-opened cold (a new process image would do exactly this), and the
// resumed engine must land on the uninterrupted run's bits.
func TestFusedKillResume(t *testing.T) {
	ds := mixedMissDS(t, 2000)
	path := filepath.Join(t.TempDir(), "resume.chunks")
	if err := dataset.WriteChunked(path, ds, 512); err != nil {
		t.Fatal(err)
	}
	open := func() *dataset.Dataset {
		vd, err := dataset.OpenChunked(path, dataset.ChunkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { vd.Close() })
		return vd
	}
	cfg := DefaultConfig()
	cfg.MaxCycles = 6
	cfg.Parallelism = 1
	const seed = 13

	// Uninterrupted run.
	wantHist, wantCls := trainTrajectory(t, open(), 3, cfg, seed)

	// Interrupted run: 3 cycles, snapshot, "crash".
	vd1 := open()
	cls1 := mustClassification(t, vd1, 3)
	eng1, err := NewEngine(vd1.All(), cls1, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng1.InitRandom(seed); err != nil {
		t.Fatal(err)
	}
	var firstHist []float64
	for c := 0; c < 3; c++ {
		cs, err := eng1.BaseCycle()
		if err != nil {
			t.Fatal(err)
		}
		eng1.convergedAfter(cs.LogPost)
		firstHist = append(firstHist, cs.LogPost)
	}
	snap := eng1.State()
	clone := cls1.Clone()

	// Resume in a fresh engine over a freshly opened mapping.
	vd2 := open()
	eng2, err := NewEngine(vd2.All(), clone, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng2.Restore(snap)
	res, err := eng2.RunFrom(3)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "resumed history", append(firstHist, res.History...), wantHist)
	sameClassification(t, clone, wantCls)
}
