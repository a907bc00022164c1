package repro

import (
	"path/filepath"
	"testing"
)

// writeChunkFile writes ds to a temp chunk file and returns its path.
func writeChunkFile(t *testing.T, ds *Dataset, chunkRows int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rows.chunks")
	if err := WriteChunkedDataset(path, ds, chunkRows); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunWithChunkedData: an out-of-core run over the chunk file — with
// and without a resident-byte budget — reproduces the in-memory search
// bit for bit, sequential and parallel alike.
func TestRunWithChunkedData(t *testing.T) {
	ds := runTestDataset(t, 1024)
	cfg := runQuickCfg()
	path := writeChunkFile(t, ds, 512)

	want, err := Run(ds, WithSearchConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(nil, WithChunkedData(path), WithSearchConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearch(t, got.Search, want.Search)

	// A budget that holds only a couple of chunks resident changes paging,
	// never results.
	tight, err := Run(nil, WithChunkedData(path), WithMemoryBudget(64<<10), WithSearchConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearch(t, tight.Search, want.Search)

	// 1024 rows across 2 ranks: the aligned partition coincides with the
	// materialized block partition, so the SPMD result matches bitwise too.
	wantPar, err := Run(ds, WithSearchConfig(cfg), WithParallel(ParallelConfig{Procs: 2}))
	if err != nil {
		t.Fatal(err)
	}
	gotPar, err := Run(nil, WithChunkedData(path), WithMemoryBudget(64<<10),
		WithSearchConfig(cfg), WithParallel(ParallelConfig{Procs: 2}))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSearch(t, gotPar.Search, wantPar.Search)
}

// TestRunChunkedOptionValidation: Run refuses the chunk-file option
// combinations that cannot be served and accepts a parallel run over a
// chunk file (whose result TestRunWithChunkedData checks bit for bit).
func TestRunChunkedOptionValidation(t *testing.T) {
	ds := runTestDataset(t, 300)
	path := writeChunkFile(t, ds, 256)
	cases := []struct {
		name   string
		ds     *Dataset
		opts   []Option
		accept bool
	}{
		{"chunked with dataset", ds, []Option{WithChunkedData(path)}, false},
		{"budget without chunked", ds, []Option{WithMemoryBudget(1 << 20)}, false},
		{"negative budget", nil, []Option{WithChunkedData(path), WithMemoryBudget(-1)}, false},
		{"chunked+parallel", nil, []Option{WithChunkedData(path),
			WithParallel(ParallelConfig{Procs: 2})}, true},
		{"missing chunk file", nil, []Option{WithChunkedData(filepath.Join(t.TempDir(), "nope.chunks"))}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.ds, append(tc.opts, WithSearchConfig(runQuickCfg()))...)
			switch {
			case tc.accept && err != nil:
				t.Errorf("%s: refused: %v", tc.name, err)
			case !tc.accept && err == nil:
				t.Errorf("%s: accepted", tc.name)
			}
		})
	}
}

// TestChunkedFacadeRoundTrip: the re-exported writer/opener round-trip a
// dataset, and the chunk-backed dataset serves the reporting helpers
// (which gather rows through RowTo, never Row).
func TestChunkedFacadeRoundTrip(t *testing.T) {
	ds := runTestDataset(t, 700)
	path := writeChunkFile(t, ds, 0) // 0 = DefaultChunkRows
	cds, err := OpenChunkedDataset(path, ChunkOptions{Mode: ChunkInMemory})
	if err != nil {
		t.Fatal(err)
	}
	defer cds.Close()
	if !cds.Equal(ds) {
		t.Fatal("chunk file round-trip changed the dataset")
	}
	r, err := Run(ds, WithSearchConfig(runQuickCfg()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ClassSizes(r.Best(), cds), ClassSizes(r.Best(), ds); len(got) != len(want) {
		t.Fatalf("class sizes over chunked: %v want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("class sizes over chunked: %v want %v", got, want)
			}
		}
	}
	if got, want := HeldoutLogLik(r.Best(), cds), HeldoutLogLik(r.Best(), ds); got != want {
		t.Fatalf("heldout loglik over chunked %v, materialized %v", got, want)
	}
	p, err := Predict(r.Best(), cds, PredictConfig{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	q, err := Predict(r.Best(), ds, PredictConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if p.LogLik != q.LogLik {
		t.Fatalf("chunked Predict loglik %v, materialized %v", p.LogLik, q.LogLik)
	}
}
