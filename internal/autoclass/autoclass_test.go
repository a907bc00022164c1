package autoclass

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/stats"
)

// paperDS returns a small instance of the paper's synthetic workload.
func paperDS(t testing.TB, n int) *dataset.Dataset {
	t.Helper()
	ds, err := datagen.Paper(n, 42)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func mustClassification(t testing.TB, ds *dataset.Dataset, j int) *Classification {
	t.Helper()
	pr := model.NewPriors(ds, ds.Summarize())
	cls, err := NewClassification(ds, model.DefaultSpec(ds), pr, j)
	if err != nil {
		t.Fatal(err)
	}
	return cls
}

func mustEngine(t testing.TB, ds *dataset.Dataset, cls *Classification, cfg Config) *Engine {
	t.Helper()
	eng, err := NewEngine(ds.All(), cls, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestNewClassificationValidation(t *testing.T) {
	ds := paperDS(t, 100)
	pr := model.NewPriors(ds, ds.Summarize())
	if _, err := NewClassification(ds, model.DefaultSpec(ds), pr, 0); err == nil {
		t.Error("J=0 accepted")
	}
	if _, err := NewClassification(ds, model.Spec{}, pr, 2); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := NewClassification(ds, model.DefaultSpec(ds), nil, 2); err == nil {
		t.Error("nil priors accepted")
	}
	cls, err := NewClassification(ds, model.DefaultSpec(ds), pr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cls.J() != 3 {
		t.Fatalf("J=%d", cls.J())
	}
	// Initial mixing weights uniform.
	for _, cl := range cls.Classes {
		if !stats.AlmostEqual(cl.LogPi, -math.Log(3), 1e-12) {
			t.Fatalf("initial log pi %v", cl.LogPi)
		}
	}
}

func TestInitialClassIsPartitionIndependent(t *testing.T) {
	// The same (seed, global index) must map to the same class regardless
	// of which rank computes it — the key determinism property.
	for _, j := range []int{1, 2, 7, 64} {
		for idx := 0; idx < 1000; idx++ {
			a := InitialClass(99, idx, j)
			b := InitialClass(99, idx, j)
			if a != b || a < 0 || a >= j {
				t.Fatalf("InitialClass(99,%d,%d) unstable or out of range: %d,%d", idx, j, a, b)
			}
		}
	}
}

func TestInitialClassSpreads(t *testing.T) {
	const j = 8
	counts := make([]int, j)
	for idx := 0; idx < 8000; idx++ {
		counts[InitialClass(7, idx, j)]++
	}
	for c, n := range counts {
		if n < 800 || n > 1200 {
			t.Fatalf("class %d got %d of 8000 items", c, n)
		}
	}
}

func TestEngineLifecycleErrors(t *testing.T) {
	ds := paperDS(t, 50)
	cls := mustClassification(t, ds, 2)
	eng := mustEngine(t, ds, cls, DefaultConfig())
	if _, err := eng.BaseCycle(); err == nil {
		t.Error("BaseCycle before InitRandom accepted")
	}
	if _, err := eng.Run(); err == nil {
		t.Error("Run before InitRandom accepted")
	}
	bad := DefaultConfig()
	bad.MaxCycles = 0
	if _, err := NewEngine(ds.All(), cls, bad, nil, nil); err == nil {
		t.Error("MaxCycles=0 accepted")
	}
	if _, err := NewEngine(nil, cls, DefaultConfig(), nil, nil); err == nil {
		t.Error("nil view accepted")
	}
}

func TestWeightsAreNormalizedPerItem(t *testing.T) {
	ds := paperDS(t, 300)
	cls := mustClassification(t, ds, 4)
	eng := mustEngine(t, ds, cls, DefaultConfig())
	if err := eng.InitRandom(1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.BaseCycle(); err != nil {
		t.Fatal(err)
	}
	// The weights the fused pass folds: the block normalizer's output.
	j := cls.J()
	wts := make([]float64, ds.N()*j)
	blockedEStep(eng, make([]float64, j+1), wts)
	for i := 0; i < ds.N(); i++ {
		sum := 0.0
		for cj := 0; cj < j; cj++ {
			w := wts[i*j+cj]
			if w < 0 || w > 1 {
				t.Fatalf("item %d class %d weight %v out of [0,1]", i, cj, w)
			}
			sum += w
		}
		if !stats.AlmostEqual(sum, 1, 1e-9) {
			t.Fatalf("item %d weights sum to %v", i, sum)
		}
	}
}

func TestClassWeightsSumToN(t *testing.T) {
	ds := paperDS(t, 500)
	cls := mustClassification(t, ds, 5)
	eng := mustEngine(t, ds, cls, DefaultConfig())
	if err := eng.InitRandom(2); err != nil {
		t.Fatal(err)
	}
	for cyc := 0; cyc < 3; cyc++ {
		if _, err := eng.BaseCycle(); err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, cl := range cls.Classes {
			total += cl.W
		}
		if !stats.AlmostEqual(total, float64(ds.N()), 1e-6) {
			t.Fatalf("cycle %d: class weights sum to %v, want %d", cyc, total, ds.N())
		}
	}
}

func TestEMLikelihoodMonotoneWithoutPriors(t *testing.T) {
	// With priors driven to zero strength the M-step is exact ML, and EM's
	// likelihood ascent theorem applies: LogLik must never decrease.
	ds := paperDS(t, 800)
	pr := model.NewPriors(ds, ds.Summarize())
	pr.Kappa = 1e-12
	pr.DirichletAlpha = 1e-12
	for k := range pr.SigmaFloor {
		if pr.SigmaFloor[k] > 0 {
			pr.SigmaFloor[k] = 1e-9
		}
	}
	cls, err := NewClassification(ds, model.DefaultSpec(ds), pr, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.PruneClasses = false
	eng := mustEngine(t, ds, cls, cfg)
	if err := eng.InitRandom(3); err != nil {
		t.Fatal(err)
	}
	last := math.Inf(-1)
	for cyc := 0; cyc < 30; cyc++ {
		if _, err := eng.BaseCycle(); err != nil {
			t.Fatal(err)
		}
		if cls.LogLik < last-1e-6*math.Abs(last) {
			t.Fatalf("cycle %d: log likelihood decreased %v -> %v", cyc, last, cls.LogLik)
		}
		last = cls.LogLik
	}
}

func TestRunConvergesOnSeparatedClusters(t *testing.T) {
	ds := paperDS(t, 2000)
	cls := mustClassification(t, ds, 5)
	eng := mustEngine(t, ds, cls, DefaultConfig())
	if err := eng.InitRandom(4); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d cycles", res.Cycles)
	}
	if res.Cycles < 2 {
		t.Fatalf("converged suspiciously fast: %d cycles", res.Cycles)
	}
	// History must be recorded for every cycle.
	if len(res.History) != res.Cycles {
		t.Fatalf("history has %d entries for %d cycles", len(res.History), res.Cycles)
	}
	// Final posterior must beat the first cycle's.
	if res.History[len(res.History)-1] < res.History[0] {
		t.Fatalf("posterior fell over the run: %v -> %v", res.History[0], res.History[len(res.History)-1])
	}
}

func TestRunIsDeterministic(t *testing.T) {
	ds := paperDS(t, 600)
	run := func() *Classification {
		cls := mustClassification(t, ds, 4)
		eng := mustEngine(t, ds, cls, DefaultConfig())
		if err := eng.InitRandom(7); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return cls
	}
	a, b := run(), run()
	if a.LogPost != b.LogPost || a.J() != b.J() || a.Cycles != b.Cycles {
		t.Fatalf("same seed diverged: %v/%d vs %v/%d", a.LogPost, a.J(), b.LogPost, b.J())
	}
	for j := range a.Classes {
		pa, pb := a.Classes[j].Terms[0].Params(), b.Classes[j].Terms[0].Params()
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("class %d params diverged", j)
			}
		}
	}
}

func TestPruningRemovesEmptyClasses(t *testing.T) {
	// Ask for far more classes than the 5 real clusters can support; after
	// convergence some must have died.
	ds := paperDS(t, 1500)
	cls := mustClassification(t, ds, 32)
	cfg := DefaultConfig()
	cfg.MaxCycles = 60
	eng := mustEngine(t, ds, cls, cfg)
	if err := eng.InitRandom(5); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if cls.J() >= 32 {
		t.Fatalf("no classes pruned from 32 (J=%d)", cls.J())
	}
	if cls.J() < 1 {
		t.Fatalf("all classes pruned")
	}
	// The fused pass's accumulators must track the new width: J class
	// sums, the log-likelihood, and one statistics vector per surviving
	// (class, term).
	combined, offs := eng.localPass()
	if want := cls.J()*len(cls.Classes[0].Terms) + 1; len(offs) != want {
		t.Fatalf("%d statistics offsets, want %d", len(offs), want)
	}
	if want := cls.J() + 1 + offs[len(offs)-1]; len(combined) != want {
		t.Fatalf("fused pass buffer len %d != %d", len(combined), want)
	}
}

func TestRecoversPlantedClusters(t *testing.T) {
	// On well-separated data the engine must find means close to the
	// planted components.
	mix := datagen.PaperMixture()
	ds, _, err := mix.Generate(4000, 11)
	if err != nil {
		t.Fatal(err)
	}
	cls := mustClassification(t, ds, 5)
	cfg := DefaultConfig()
	cfg.MaxCycles = 100
	eng := mustEngine(t, ds, cls, cfg)
	if err := eng.InitRandom(6); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if cls.J() != 5 {
		t.Fatalf("expected 5 classes to survive, got %d", cls.J())
	}
	// Every planted mean must be within 0.5 of some recovered class mean.
	for _, comp := range mix.Components {
		found := false
		for _, cl := range cls.Classes {
			mx := cl.Terms[0].Params()[0]
			my := cl.Terms[1].Params()[0]
			dx, dy := mx-comp.Mean[0], my-comp.Mean[1]
			if math.Sqrt(dx*dx+dy*dy) < 0.5 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("planted cluster at %v not recovered", comp.Mean)
		}
	}
}

func TestPredictMembership(t *testing.T) {
	ds := paperDS(t, 1000)
	cls := mustClassification(t, ds, 5)
	eng := mustEngine(t, ds, cls, DefaultConfig())
	if err := eng.InitRandom(8); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Probabilities normalized, hard assignment consistent.
	for i := 0; i < 50; i++ {
		row := ds.RowTo(nil, i)
		p := cls.Predict(row)
		if !stats.AlmostEqual(stats.Sum(p), 1, 1e-9) {
			t.Fatalf("membership sums to %v", stats.Sum(p))
		}
		hard := cls.HardAssign(row)
		for j := range p {
			if p[j] > p[hard] {
				t.Fatalf("hard assignment %d not argmax", hard)
			}
		}
	}
}

func TestChargerReceivesOps(t *testing.T) {
	ds := paperDS(t, 200)
	cls := mustClassification(t, ds, 3)
	var total float64
	ch := chargerFunc(func(u float64) { total += u })
	eng, err := NewEngine(ds.All(), cls, DefaultConfig(), nil, ch)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InitRandom(1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.BaseCycle(); err != nil {
		t.Fatal(err)
	}
	// One cycle charges at least n·J·(A+1) + n·J·A with n=200, J=3, A=2.
	minWant := float64(200*3*3 + 200*3*2)
	if total < minWant {
		t.Fatalf("charged %v ops, want at least %v", total, minWant)
	}
}

type chargerFunc func(float64)

func (f chargerFunc) ChargeOps(u float64) { f(u) }

func TestMissingDataRunsClean(t *testing.T) {
	ds := paperDS(t, 800)
	if _, err := datagen.InjectMissing(ds, 0.15, 3); err != nil {
		t.Fatal(err)
	}
	cls := mustClassification(t, ds, 4)
	eng := mustEngine(t, ds, cls, DefaultConfig())
	if err := eng.InitRandom(10); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(cls.LogPost) || math.IsInf(cls.LogPost, 0) {
		t.Fatalf("posterior %v with missing data", cls.LogPost)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles ran")
	}
}

func TestScorePenalizesComplexity(t *testing.T) {
	// Same fit quality, more parameters => lower score.
	ds := paperDS(t, 500)
	a := mustClassification(t, ds, 2)
	b := mustClassification(t, ds, 10)
	a.LogLik, a.LogPrior, a.LogPost = -100, 0, -100
	b.LogLik, b.LogPrior, b.LogPost = -100, 0, -100
	if a.Score() <= b.Score() {
		t.Fatalf("score did not penalize parameters: %v vs %v", a.Score(), b.Score())
	}
}

func TestCloneIndependence(t *testing.T) {
	ds := paperDS(t, 100)
	cls := mustClassification(t, ds, 3)
	clone := cls.Clone()
	cls.Classes[0].LogPi = -99
	cls.Classes[0].Terms[0].SetParams([]float64{42, 1})
	if clone.Classes[0].LogPi == -99 {
		t.Fatal("clone shares class state")
	}
	if clone.Classes[0].Terms[0].Params()[0] == 42 {
		t.Fatal("clone shares term state")
	}
}

func TestNumFreeParams(t *testing.T) {
	ds := paperDS(t, 100)
	cls := mustClassification(t, ds, 3)
	// 2 real attrs × 2 params × 3 classes + (3−1) class weights = 14.
	if got := cls.NumFreeParams(); got != 14 {
		t.Fatalf("NumFreeParams = %d, want 14", got)
	}
	if got := cls.NumAttrColumns(); got != 2 {
		t.Fatalf("NumAttrColumns = %d", got)
	}
}

func TestMixedTypesEndToEnd(t *testing.T) {
	spec := datagen.ProteinMixture()
	ds, _, err := spec.Generate(2000, 21)
	if err != nil {
		t.Fatal(err)
	}
	cls := mustClassification(t, ds, 4)
	eng := mustEngine(t, ds, cls, DefaultConfig())
	if err := eng.InitRandom(12); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Logf("mixed-type run hit the cycle cap (acceptable): %d cycles", res.Cycles)
	}
	if cls.J() < 2 {
		t.Fatalf("mixed-type data collapsed to %d classes", cls.J())
	}
}

func TestCorrelatedSpecEndToEnd(t *testing.T) {
	ds := paperDS(t, 1000)
	pr := model.NewPriors(ds, ds.Summarize())
	cls, err := NewClassification(ds, model.CorrelatedSpec(ds), pr, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng := mustEngine(t, ds, cls, DefaultConfig())
	if err := eng.InitRandom(13); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(cls.LogPost) {
		t.Fatal("NaN posterior under correlated spec")
	}
}

func TestLogNormalSpecEndToEnd(t *testing.T) {
	ds, labels, err := datagen.LogNormalMixture(3000, 17)
	if err != nil {
		t.Fatal(err)
	}
	// A single random initialization can land in a local optimum that
	// merges the two upper components; the BIG_LOOP's restarts are exactly
	// the cure, so test through the search.
	cfg := DefaultSearchConfig()
	cfg.StartJList = []int{3}
	cfg.Tries = 4
	cfg.EM.MaxCycles = 100
	res, err := Search(ds, model.LogNormalSpec(ds), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cls := res.Best
	if cls.J() != 3 {
		t.Fatalf("expected 3 log-normal components, got %d", cls.J())
	}
	// Medians near 10, 200, 5000: check each planted median is close (in
	// log space) to some recovered class.
	for _, med := range []float64{10, 200, 5000} {
		found := false
		for _, cl := range cls.Classes {
			if math.Abs(cl.Terms[0].Params()[0]-math.Log(med)) < 0.4 {
				found = true
			}
		}
		if !found {
			t.Fatalf("median %v not recovered", med)
		}
	}
	// Cluster purity: hard assignments should agree strongly with labels.
	agree := 0
	assign := make(map[[2]int]int)
	for i := 0; i < ds.N(); i++ {
		assign[[2]int{labels[i], cls.HardAssign(ds.RowTo(nil, i))}]++
	}
	for l := 0; l < 3; l++ {
		best := 0
		for c := 0; c < 3; c++ {
			if assign[[2]int{l, c}] > best {
				best = assign[[2]int{l, c}]
			}
		}
		agree += best
	}
	if frac := float64(agree) / float64(ds.N()); frac < 0.9 {
		t.Fatalf("log-normal clustering purity %.2f", frac)
	}
}

// failingReducer simulates a communication failure after n reductions.
type failingReducer struct{ budget int }

func (f *failingReducer) ReduceInPlace(buf []float64) error {
	if f.budget <= 0 {
		return fmt.Errorf("injected reducer failure")
	}
	f.budget--
	return nil
}

func TestEngineSurfacesReducerFailure(t *testing.T) {
	ds := paperDS(t, 200)
	cls := mustClassification(t, ds, 3)
	eng, err := NewEngine(ds.All(), cls, DefaultConfig(), &failingReducer{budget: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InitRandom(1); err != nil {
		t.Fatal(err)
	}
	_, err = eng.Run()
	if err == nil {
		t.Fatal("engine swallowed a reducer failure")
	}
	if !strings.Contains(err.Error(), "injected") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestEngineSurfacesInitReducerFailure(t *testing.T) {
	ds := paperDS(t, 200)
	cls := mustClassification(t, ds, 3)
	eng, err := NewEngine(ds.All(), cls, DefaultConfig(), &failingReducer{budget: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InitRandom(1); err == nil {
		t.Fatal("InitRandom swallowed a reducer failure")
	}
}
