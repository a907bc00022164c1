// Satimage: unsupervised land-cover discovery on a synthetic Landsat-like
// workload — the use case the paper motivates with AutoClass's 130-hour
// satellite image run [6]. Four spectral bands per pixel; the classifier
// must recover water / soil / crops / forest / urban without labels.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/datagen"
)

func main() {
	mix := datagen.SatImageMixture()
	ds, truth, err := mix.Generate(20000, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("satellite workload: %d pixels x %d spectral bands, %d true cover classes\n\n",
		ds.N(), ds.NumAttrs(), len(mix.Components))

	cfg := repro.DefaultSearchConfig()
	cfg.StartJList = []int{2, 5, 8}
	cfg.Tries = 1

	// Cluster in parallel on 8 ranks under the simulated Meiko CS-2 so the
	// run also reports what it would have cost on the paper's hardware.
	machine := repro.MeikoCS2()
	r, err := repro.Run(ds,
		repro.WithSearchConfig(cfg),
		repro.WithParallel(repro.ParallelConfig{
			Procs:   8,
			Machine: &machine,
		}))
	if err != nil {
		log.Fatal(err)
	}
	res, stats := r.Search, r.Stats
	fmt.Printf("found %d cover classes (log posterior %.1f)\n", res.Best.J(), res.Best.LogPost)
	fmt.Printf("wall time %.2fs; on the Meiko CS-2 with 8 processors this run models as %s (%.0f%% communication)\n\n",
		stats.WallSeconds, repro.FormatHMS(stats.VirtualSeconds),
		100*stats.VirtualCommSeconds/stats.VirtualSeconds)

	// Confusion against the hidden truth: count the dominant true class of
	// every discovered class.
	j := res.Best.J()
	confusion := make([][]int, j)
	for c := range confusion {
		confusion[c] = make([]int, len(mix.Components))
	}
	row := make([]float64, ds.NumAttrs())
	for i := 0; i < ds.N(); i++ {
		confusion[res.Best.HardAssign(ds.RowTo(row, i))][truth[i]]++
	}
	names := []string{"water", "soil", "crops", "forest", "urban"}
	fmt.Println("discovered class -> dominant true cover (purity):")
	correct := 0
	for c := range confusion {
		best, total := 0, 0
		for tc, n := range confusion[c] {
			total += n
			if n > confusion[c][best] {
				best = tc
			}
		}
		if total == 0 {
			continue
		}
		correct += confusion[c][best]
		fmt.Printf("  class %d (%5d px) -> %-6s (%.1f%%)\n",
			c, total, names[best], 100*float64(confusion[c][best])/float64(total))
	}
	fmt.Printf("overall purity: %.1f%%\n", 100*float64(correct)/float64(ds.N()))

	// External quality metrics against the hidden truth.
	ct, err := repro.Evaluate(res.Best, ds, truth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adjusted Rand index: %.3f   normalized mutual information: %.3f\n",
		ct.AdjustedRandIndex(), ct.NormalizedMutualInformation())
}
