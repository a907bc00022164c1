// Proteins: Bayesian classification of mixed-type protein feature vectors —
// the workload class behind the paper's 300–400 hour protein-sequence
// anchor [3] (Hunter & States). Demonstrates the multinomial model term for
// the discrete secondary-structure attribute, missing-value handling, and
// checkpointing a long run.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/datagen"
)

func main() {
	spec := datagen.ProteinMixture()
	ds, _, err := spec.Generate(8000, 11)
	if err != nil {
		log.Fatal(err)
	}
	// Real assay data is gappy: blank 10% of values.
	blanked, err := datagen.InjectMissing(ds, 0.10, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("protein workload: %d windows, %d features (3 real + 1 discrete), %d values missing\n\n",
		ds.N(), ds.NumAttrs(), blanked)

	cfg := repro.DefaultSearchConfig()
	cfg.StartJList = []int{2, 4, 8}
	cfg.Tries = 2

	r, err := repro.Run(ds,
		repro.WithSearchConfig(cfg),
		repro.WithParallel(repro.ParallelConfig{Procs: 6}))
	if err != nil {
		log.Fatal(err)
	}
	res := r.Search
	fmt.Printf("discovered %d protein families (score %.1f, %d of %d tries were duplicates)\n\n",
		res.Best.J(), res.Best.Score(), countDuplicates(res), len(res.Tries))

	fmt.Println(repro.BuildReport(res.Best, ds))

	// Checkpoint the classification; a later session can reload it and
	// classify new sequences without re-running the search.
	dir, err := os.MkdirTemp("", "proteins")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ck := filepath.Join(dir, "families.json")
	if err := (&repro.Checkpoint{Classification: res.Best}).SaveFile(ck); err != nil {
		log.Fatal(err)
	}
	var loaded repro.Checkpoint
	if err := loaded.LoadFile(ck, ds); err != nil {
		log.Fatal(err)
	}
	restored := loaded.Classification
	probe := ds.RowTo(nil, 0)
	fmt.Printf("checkpoint round trip OK: new window classified to family %d (same as before: %v)\n",
		restored.HardAssign(probe), restored.HardAssign(probe) == res.Best.HardAssign(probe))
}

func countDuplicates(res *repro.SearchResult) int {
	n := 0
	for _, tr := range res.Tries {
		if tr.Duplicate {
			n++
		}
	}
	return n
}
