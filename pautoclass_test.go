package repro

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datagen"
)

func quickCfg() SearchConfig {
	cfg := DefaultSearchConfig()
	cfg.StartJList = []int{2, 5}
	cfg.Tries = 1
	cfg.EM.MaxCycles = 40
	return cfg
}

func TestFacadeSequentialCluster(t *testing.T) {
	ds, err := PaperDataset(1500, 42)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Run(ds, WithSearchConfig(quickCfg()))
	if err != nil {
		t.Fatal(err)
	}
	res := run.Search
	if res.Best.J() < 4 || res.Best.J() > 6 {
		t.Fatalf("best J=%d, expected about 5", res.Best.J())
	}
	rep := BuildReport(res.Best, ds)
	if !strings.Contains(rep.String(), "AutoClass classification report") {
		t.Fatal("report rendering broken")
	}
}

func TestFacadeParallelMatchesSequential(t *testing.T) {
	ds, err := PaperDataset(1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	seqRun, err := Run(ds, WithSearchConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	seq := seqRun.Search
	run, err := Run(ds, WithSearchConfig(cfg), WithParallel(ParallelConfig{Procs: 4}))
	if err != nil {
		t.Fatal(err)
	}
	par := run.Search
	stats := &run.Stats
	if par.Best.J() != seq.Best.J() {
		t.Fatalf("parallel J=%d, sequential %d", par.Best.J(), seq.Best.J())
	}
	if stats.WallSeconds <= 0 {
		t.Fatal("no wall time recorded")
	}
	if stats.VirtualSeconds != 0 {
		t.Fatal("virtual time without a machine")
	}
}

func TestFacadeVirtualMachine(t *testing.T) {
	ds, err := PaperDataset(5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	m := MeikoCS2()
	run, err := Run(ds, WithSearchConfig(cfg), WithParallel(ParallelConfig{Procs: 4, Machine: &m}))
	if err != nil {
		t.Fatal(err)
	}
	stats := &run.Stats
	if stats.VirtualSeconds <= 0 || stats.VirtualCommSeconds <= 0 {
		t.Fatalf("virtual stats %+v", stats)
	}
	if stats.VirtualCommSeconds >= stats.VirtualSeconds {
		t.Fatal("communication exceeds total time")
	}
}

func TestFacadeTCP(t *testing.T) {
	ds, err := PaperDataset(500, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	cfg.StartJList = []int{3}
	run, err := Run(ds, WithSearchConfig(cfg), WithParallel(ParallelConfig{Procs: 3, UseTCP: true}))
	if err != nil {
		t.Fatal(err)
	}
	res := run.Search
	if res.Best.J() < 1 {
		t.Fatal("no classification")
	}
}

func TestFacadeDatasetRoundTripAndCheckpoint(t *testing.T) {
	ds, err := PaperDataset(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "d.bin")
	if err := SaveDataset(dataPath, ds); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDataset(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != ds.N() {
		t.Fatalf("round trip N=%d", back.N())
	}
	run, err := Run(ds, WithSearchConfig(quickCfg()))
	if err != nil {
		t.Fatal(err)
	}
	res := run.Search
	ckPath := filepath.Join(dir, "ck.json")
	if err := (&Checkpoint{Classification: res.Best}).SaveFile(ckPath); err != nil {
		t.Fatal(err)
	}
	var ck Checkpoint
	if err := ck.LoadFile(ckPath, ds); err != nil {
		t.Fatal(err)
	}
	cls := ck.Classification
	if cls.J() != res.Best.J() {
		t.Fatalf("checkpoint J=%d", cls.J())
	}
}

func TestFacadeCorrelated(t *testing.T) {
	ds, err := PaperDataset(800, 42)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Run(ds, WithSearchConfig(quickCfg()), WithCorrelated())
	if err != nil {
		t.Fatal(err)
	}
	res := run.Search
	if res.Best.J() < 1 {
		t.Fatal("no classification")
	}
}

func TestFacadeValidation(t *testing.T) {
	if _, err := Run(nil, WithSearchConfig(quickCfg())); err == nil {
		t.Error("nil dataset accepted")
	}
	ds, _ := PaperDataset(10, 1)
	if _, err := Run(ds, WithSearchConfig(quickCfg()), WithParallel(ParallelConfig{Procs: 0})); err == nil {
		t.Error("zero procs accepted")
	}
	if _, err := Run(nil, WithSearchConfig(quickCfg()), WithCorrelated()); err == nil {
		t.Error("nil dataset accepted by correlated")
	}
}

func TestFacadeNewDataset(t *testing.T) {
	ds, err := NewDataset("mine", []Attribute{
		{Name: "x", Type: Real},
		{Name: "c", Type: Discrete, Levels: []string{"a", "b"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AppendRow([]float64{1.5, 0}); err != nil {
		t.Fatal(err)
	}
	if err := ds.AppendRow([]float64{Missing, 1}); err != nil {
		t.Fatal(err)
	}
	if ds.N() != 2 {
		t.Fatalf("N=%d", ds.N())
	}
}

func TestFormatHMSFacade(t *testing.T) {
	if FormatHMS(3661) != "1.01.01" {
		t.Fatalf("FormatHMS(3661) = %s", FormatHMS(3661))
	}
}

func TestFacadeClusterModels(t *testing.T) {
	ds, err := PaperDataset(1200, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	cfg.StartJList = []int{5}
	run, err := Run(ds, WithSearchConfig(cfg), WithModelSearch())
	if err != nil {
		t.Fatal(err)
	}
	res := run.Models
	// Two reals with negative values: independent + correlated candidates.
	if len(res.PerSpec) != 2 {
		t.Fatalf("per-spec results %d", len(res.PerSpec))
	}
	if res.Best == nil || res.BestSpec == "" {
		t.Fatal("no best model")
	}
	if _, err := Run(nil, WithSearchConfig(cfg), WithModelSearch()); err == nil {
		t.Fatal("nil dataset accepted")
	}
}

func TestFacadeCasesAndSharpness(t *testing.T) {
	ds, err := PaperDataset(800, 42)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Run(ds, WithSearchConfig(quickCfg()))
	if err != nil {
		t.Fatal(err)
	}
	res := run.Search
	cases := AssignCases(res.Best, ds, 0.5)
	if len(cases) != ds.N() {
		t.Fatalf("%d cases", len(cases))
	}
	sizes := ClassSizes(res.Best, ds)
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != ds.N() {
		t.Fatalf("sizes sum %d", total)
	}
	if sharp := MeanMaxMembership(res.Best, ds); sharp < 0.8 {
		t.Fatalf("sharpness %v", sharp)
	}
	var sb strings.Builder
	if err := WriteCases(&sb, res.Best, ds, 0.5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "# case assignments") {
		t.Fatal("case output malformed")
	}
}

func TestFacadeEvaluateRecoversPlantedStructure(t *testing.T) {
	// End-to-end recovery quality: cluster the paper mixture and score
	// against the planted labels with the external metrics.
	mix := datagen.PaperMixture()
	ds, labels, err := mix.Generate(4000, 13)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	cfg.StartJList = []int{5}
	run, err := Run(ds, WithSearchConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	res := run.Search
	ct, err := Evaluate(res.Best, ds, labels)
	if err != nil {
		t.Fatal(err)
	}
	if ari := ct.AdjustedRandIndex(); ari < 0.95 {
		t.Fatalf("ARI %v, expected near-perfect recovery", ari)
	}
	if nmi := ct.NormalizedMutualInformation(); nmi < 0.9 {
		t.Fatalf("NMI %v", nmi)
	}
	if p := ct.Purity(); p < 0.95 {
		t.Fatalf("purity %v", p)
	}
	// Validation paths.
	if _, err := Evaluate(res.Best, ds, labels[:10]); err == nil {
		t.Fatal("label length mismatch accepted")
	}
	if _, err := Evaluate(nil, ds, labels); err == nil {
		t.Fatal("nil classification accepted")
	}
}
