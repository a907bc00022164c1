package autoclass

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
)

// streamBatches cuts the dataset's rows into batches of the given size
// (the last may be partial) — the shape of chunk-at-a-time ingest.
func streamBatches(t *testing.T, ds *dataset.Dataset, batchRows int) []*dataset.Columns {
	t.Helper()
	store, err := dataset.ChunkColumns(ds.All().Columns(), batchRows)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*dataset.Columns, store.NumChunks())
	for c := range out {
		out[c] = store.Acquire(c)
	}
	return out
}

// TestStreamTrainerMatchesEngine: folding an EM cycle batch-by-batch —
// any ChunkAlign-multiple batch size — produces bitwise the trajectory of
// Engine.BaseCycle's deterministic sharded path over the same rows.
func TestStreamTrainerMatchesEngine(t *testing.T) {
	ds := mixedMissDS(t, 3000)
	const seed = 17
	cfg := DefaultConfig()
	cfg.MaxCycles = 5
	cfg.Parallelism = 1

	wantCls := mustClassification(t, ds, 4)
	eng, err := NewEngine(ds.All(), wantCls, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InitRandom(seed); err != nil {
		t.Fatal(err)
	}
	var wantHist []float64
	for c := 0; c < cfg.MaxCycles; c++ {
		cs, err := eng.BaseCycle()
		if err != nil {
			t.Fatal(err)
		}
		wantHist = append(wantHist, cs.LogPost)
	}

	for _, batchRows := range []int{256, 512, 1024, 2048} {
		t.Run(fmt.Sprintf("batch%d", batchRows), func(t *testing.T) {
			batches := streamBatches(t, ds, batchRows)
			cls := mustClassification(t, ds, 4)
			st, err := NewStreamTrainer(cls, cfg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.BeginInit(seed); err != nil {
				t.Fatal(err)
			}
			for _, b := range batches {
				if err := st.Fold(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.FinishInit(); err != nil {
				t.Fatal(err)
			}
			var gotHist []float64
			for c := 0; c < cfg.MaxCycles; c++ {
				for _, b := range batches {
					if err := st.Fold(b); err != nil {
						t.Fatal(err)
					}
				}
				cs, err := st.Flush()
				if err != nil {
					t.Fatal(err)
				}
				gotHist = append(gotHist, cs.LogPost)
			}
			sameBits(t, "history", gotHist, wantHist)
			sameClassification(t, cls, wantCls)
		})
	}
}

// TestStreamTrainerMixedBatchSizes: batch boundaries may vary within one
// stream (any block-multiple prefix batches), not just a uniform size.
func TestStreamTrainerMixedBatchSizes(t *testing.T) {
	ds := mixedMissDS(t, 2200)
	cfg := DefaultConfig()
	cfg.MaxCycles = 3
	cfg.Parallelism = 1
	wantHist, wantCls := trainTrajectory(t, ds, 3, cfg, 21)

	// 2200 rows as 1024 + 256 + 768 + 152: every cut block-aligned, shard
	// boundaries crossed both at and inside batches. Each batch is its own
	// small materialized dataset — the shape of rows arriving off a wire.
	cuts := []int{0, 1024, 1280, 2048, 2200}
	var chunks []*dataset.Columns
	row := make([]float64, ds.NumAttrs())
	for i := 0; i+1 < len(cuts); i++ {
		b, err := dataset.New("batch", ds.Attrs())
		if err != nil {
			t.Fatal(err)
		}
		for r := cuts[i]; r < cuts[i+1]; r++ {
			if err := b.AppendRow(ds.RowTo(row, r)); err != nil {
				t.Fatal(err)
			}
		}
		chunks = append(chunks, b.All().Columns())
	}
	cls := mustClassification(t, ds, 3)
	tr, err := NewStreamTrainer(cls, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BeginInit(21); err != nil {
		t.Fatal(err)
	}
	for _, b := range chunks {
		if err := tr.Fold(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.FinishInit(); err != nil {
		t.Fatal(err)
	}
	var gotHist []float64
	for c := 0; c < cfg.MaxCycles; c++ {
		for _, b := range chunks {
			if err := tr.Fold(b); err != nil {
				t.Fatal(err)
			}
		}
		cs, err := tr.Flush()
		if err != nil {
			t.Fatal(err)
		}
		gotHist = append(gotHist, cs.LogPost)
	}
	sameBits(t, "history", gotHist, wantHist)
	sameClassification(t, cls, wantCls)
}

// TestStreamTrainerRejections: misuse must fail loudly, not corrupt the
// accumulators.
func TestStreamTrainerRejections(t *testing.T) {
	ds := mixedMissDS(t, 700)
	cfg := DefaultConfig()
	cfg.Parallelism = 1
	cls := mustClassification(t, ds, 2)

	staleCfg := cfg
	staleCfg.SyncEvery = 2
	if _, err := NewStreamTrainer(cls, staleCfg, nil, nil); err == nil {
		t.Error("SyncEvery > 1 accepted for streaming")
	}

	st, err := NewStreamTrainer(cls, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	batches := streamBatches(t, ds, 256) // 256, 256, 188
	if err := st.Fold(batches[0]); err == nil {
		t.Error("Fold before BeginInit accepted")
	}
	if err := st.BeginInit(1); err != nil {
		t.Fatal(err)
	}
	if err := st.Fold(batches[2]); err != nil { // partial batch first...
		t.Fatal(err)
	}
	if err := st.Fold(batches[0]); err == nil { // ...then more rows: rejected
		t.Error("batch after a partial batch accepted")
	}
	if _, err := st.Flush(); err == nil {
		t.Error("Flush during the init pass accepted")
	}

	// Row-count drift across cycles is an error.
	st2, err := NewStreamTrainer(mustClassification(t, ds, 2), cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.BeginInit(1); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := st2.Fold(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st2.FinishInit(); err != nil {
		t.Fatal(err)
	}
	if err := st2.Fold(batches[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Flush(); err == nil {
		t.Error("short cycle accepted")
	}
}
