package pautoclass

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/autoclass"
	"repro/internal/dataset"
	"repro/internal/mpi"
	"repro/internal/stats"
)

// chunkFileDS writes ds to a chunk file and opens it with the given
// options; the returned dataset is closed with the test.
func chunkFileDS(t *testing.T, ds *dataset.Dataset, chunkRows int, opts dataset.ChunkOptions) *dataset.Dataset {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rows.chunks")
	if err := dataset.WriteChunked(path, ds, chunkRows); err != nil {
		t.Fatal(err)
	}
	cds, err := dataset.OpenChunked(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cds.Close() })
	return cds
}

// sameSearchBits requires two search results to agree exactly: same best
// class structure and scores bit for bit, same per-try records.
func sameSearchBits(t *testing.T, label string, got, want *autoclass.SearchResult) {
	t.Helper()
	if got.Best.J() != want.Best.J() {
		t.Fatalf("%s: J=%d want %d", label, got.Best.J(), want.Best.J())
	}
	if got.Best.LogPost != want.Best.LogPost || got.Best.LogLik != want.Best.LogLik {
		t.Fatalf("%s: logpost/loglik %v/%v want %v/%v", label,
			got.Best.LogPost, got.Best.LogLik, want.Best.LogPost, want.Best.LogLik)
	}
	if got.BestTry.StartJ != want.BestTry.StartJ || got.BestTry.Seed != want.BestTry.Seed {
		t.Fatalf("%s: best try %+v want %+v", label, got.BestTry, want.BestTry)
	}
	if len(got.Tries) != len(want.Tries) {
		t.Fatalf("%s: %d tries want %d", label, len(got.Tries), len(want.Tries))
	}
	for i := range want.Tries {
		if got.Tries[i].Score != want.Tries[i].Score || got.Tries[i].Cycles != want.Tries[i].Cycles {
			t.Fatalf("%s try %d: score %v cycles %d, want %v/%d", label, i,
				got.Tries[i].Score, got.Tries[i].Cycles, want.Tries[i].Score, want.Tries[i].Cycles)
		}
	}
	for j := range want.Best.Classes {
		gp := got.Best.Classes[j].Terms[0].Params()
		wp := want.Best.Classes[j].Terms[0].Params()
		for i := range wp {
			if gp[i] != wp[i] {
				t.Fatalf("%s class %d param %d: %v want %v", label, j, i, gp[i], wp[i])
			}
		}
	}
}

// TestParallelChunkedMatchesMaterialized: with the row count a multiple of
// ChunkAlign×P the aligned partition coincides with the materialized
// block partition, so an SPMD search over the chunk plane must reproduce
// the materialized parallel search bit for bit — for every backing and
// chunk size.
func TestParallelChunkedMatchesMaterialized(t *testing.T) {
	ds := paperDS(t, 2048)
	cfg := quickSearchConfig()
	backings := map[string]*dataset.Dataset{
		"file-cached": chunkFileDS(t, ds, 512, dataset.ChunkOptions{Mode: dataset.ChunkCached, Chunks: 2}),
		"file-auto":   chunkFileDS(t, ds, 1024, dataset.ChunkOptions{}),
	}
	if mem, err := dataset.ChunkedCopy(ds, 256); err != nil {
		t.Fatal(err)
	} else {
		backings["mem"] = mem
	}
	for _, p := range []int{2, 4} {
		want := runParallelSearch(t, ds, p, cfg, DefaultOptions())
		for name, cds := range backings {
			got := runParallelSearch(t, cds, p, cfg, DefaultOptions())
			sameSearchBits(t, name, got, want)
		}
	}
}

// TestParallelChunkedAlignedPartition: when the row count does not divide
// evenly, the chunk-backed partition lands every rank's start on the
// ChunkAlign grid (so kernel blocks stay chunk-contained) and all backings
// still agree with each other bit for bit.
func TestParallelChunkedAlignedPartition(t *testing.T) {
	ds := paperDS(t, 2100)
	cds := chunkFileDS(t, ds, 512, dataset.ChunkOptions{Mode: dataset.ChunkCached, Chunks: 2})
	const p = 3
	err := mpi.Run(p, func(c *mpi.Comm) error {
		view, err := PartitionView(c, cds)
		if err != nil {
			return err
		}
		if view.Start()%dataset.ChunkAlign != 0 {
			t.Errorf("rank %d starts at %d, off the %d grid", c.Rank(), view.Start(), dataset.ChunkAlign)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickSearchConfig()
	mem, err := dataset.ChunkedCopy(ds, 1024)
	if err != nil {
		t.Fatal(err)
	}
	want := runParallelSearch(t, mem, p, cfg, DefaultOptions())
	got := runParallelSearch(t, cds, p, cfg, DefaultOptions())
	sameSearchBits(t, "cached-vs-mem", got, want)
}

// TestWtsOnlyChunkedMatchesMaterialized: the wts-only baseline reads its
// rows through RowTo and reassembles the gathered weights on the partition
// PartitionView cuts, so it runs on chunk-backed data too. With ChunkAlign·P
// dividing n the aligned partition is the in-memory one, and a search over
// the chunk plane is bitwise the search over the in-memory rows — on the
// in-memory chunk grid and on a two-chunk cache over a file. Off that grid
// (n = 2100, P = 3) the ranks' views start on ChunkAlign multiples, and
// the baseline must still agree with the Full strategy on the same data.
func TestWtsOnlyChunkedMatchesMaterialized(t *testing.T) {
	ds := paperDS(t, 2048)
	cfg := quickSearchConfig()
	opts := Options{EM: cfg.EM, Strategy: WtsOnly}
	mem, err := dataset.ChunkedCopy(ds, 512)
	if err != nil {
		t.Fatal(err)
	}
	backings := map[string]*dataset.Dataset{
		"mem":         mem,
		"file-cached": chunkFileDS(t, ds, 512, dataset.ChunkOptions{Mode: dataset.ChunkCached, Chunks: 2}),
	}
	for _, p := range []int{2, 4} {
		want := runParallelSearch(t, ds, p, cfg, opts)
		for name, cds := range backings {
			sameSearchBits(t, fmt.Sprintf("%s/P=%d", name, p), runParallelSearch(t, cds, p, cfg, opts), want)
		}
	}

	odd := chunkFileDS(t, paperDS(t, 2100), 512, dataset.ChunkOptions{Mode: dataset.ChunkCached, Chunks: 2})
	full := runParallelSearch(t, odd, 3, cfg, Options{EM: cfg.EM, Strategy: Full})
	wts := runParallelSearch(t, odd, 3, cfg, opts)
	if full.Best.J() != wts.Best.J() || !stats.AlmostEqual(full.Best.LogPost, wts.Best.LogPost, 1e-6) {
		t.Fatalf("unaligned 3-rank run: Full J=%d logpost %v, WtsOnly J=%d logpost %v",
			full.Best.J(), full.Best.LogPost, wts.Best.J(), wts.Best.LogPost)
	}
}
