package autoclass

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/stats"
)

func TestAssignCasesStructure(t *testing.T) {
	cls, ds := convergedClassification(t, 800)
	cases := AssignCases(cls, ds.All(), 0.1)
	if len(cases) != ds.N() {
		t.Fatalf("got %d cases", len(cases))
	}
	for _, ca := range cases {
		if len(ca.Classes) == 0 || len(ca.Classes) != len(ca.Probs) {
			t.Fatalf("case %d: %v/%v", ca.Index, ca.Classes, ca.Probs)
		}
		// Sorted by decreasing probability.
		for k := 1; k < len(ca.Probs); k++ {
			if ca.Probs[k] > ca.Probs[k-1] {
				t.Fatalf("case %d probs not sorted: %v", ca.Index, ca.Probs)
			}
		}
		// Non-best entries must clear the threshold.
		for k := 1; k < len(ca.Probs); k++ {
			if ca.Probs[k] < 0.1 {
				t.Fatalf("case %d entry below threshold: %v", ca.Index, ca.Probs)
			}
		}
		// Best entry equals the prediction's max.
		probs := cls.Predict(ds.RowTo(nil, ca.Index))
		best := 0.0
		for _, p := range probs {
			if p > best {
				best = p
			}
		}
		if ca.Probs[0] != best {
			t.Fatalf("case %d best %v != %v", ca.Index, ca.Probs[0], best)
		}
	}
}

func TestAssignCasesHighThresholdIsHard(t *testing.T) {
	cls, ds := convergedClassification(t, 500)
	for _, ca := range AssignCases(cls, ds.All(), 0.999) {
		if len(ca.Classes) != 1 && ca.Probs[1] < 0.999 {
			t.Fatalf("case %d kept sub-threshold class: %v", ca.Index, ca.Probs)
		}
	}
}

func TestWriteCasesFormat(t *testing.T) {
	cls, ds := convergedClassification(t, 100)
	var buf bytes.Buffer
	if err := WriteCases(&buf, cls, ds.All(), 0.5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 100+2 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "# case assignments: 100 cases") {
		t.Fatalf("header %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "0  ") {
		t.Fatalf("first case line %q", lines[2])
	}
}

func TestClassSizesSumToN(t *testing.T) {
	cls, ds := convergedClassification(t, 700)
	sizes := ClassSizes(cls, ds.All())
	if len(sizes) != cls.J() {
		t.Fatalf("sizes %v", sizes)
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != ds.N() {
		t.Fatalf("sizes sum to %d of %d", total, ds.N())
	}
}

func TestMeanMaxMembershipSharpOnSeparatedData(t *testing.T) {
	// The paper's §2: probability ~0.99 in the most probable class means
	// well-separated classes. Our synthetic clusters are well separated.
	cls, ds := convergedClassification(t, 1000)
	sharp := MeanMaxMembership(cls, ds.All())
	if sharp < 0.9 {
		t.Fatalf("mean max membership %v, expected sharp (>0.9)", sharp)
	}
	if sharp > 1+1e-9 {
		t.Fatalf("impossible membership %v", sharp)
	}
	// Empty view yields 0.
	empty, err := ds.View(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if MeanMaxMembership(cls, empty) != 0 {
		t.Fatal("empty view should give 0")
	}
}

func TestMembershipOrderStable(t *testing.T) {
	order := membershipOrder([]float64{0.2, 0.5, 0.2, 0.1})
	if order[0] != 1 {
		t.Fatalf("order %v", order)
	}
	// Ties keep index order (stable sort).
	if order[1] != 0 || order[2] != 2 {
		t.Fatalf("tie order %v", order)
	}
	if !stats.AlmostEqual(0.1, 0.1, 0) {
		t.Fatal("sanity")
	}
}

func TestHeldoutLogLikValidatesModelSelection(t *testing.T) {
	// Train on a split, evaluate on held-out data: the BIC-selected model
	// must fit unseen data at least as well as a deliberately overfit one.
	full := paperDS(t, 3000)
	train, test, err := dataset.SplitShuffled(full, 0.7, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSearchConfig()
	cfg.StartJList = []int{5}
	cfg.Tries = 2
	cfg.EM.MaxCycles = 60
	res, err := Search(train, model.DefaultSpec(train), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Overfit comparator: force 40 classes, no pruning.
	pr := model.NewPriors(train, train.Summarize())
	over, err := NewClassification(train, model.DefaultSpec(train), pr, 40)
	if err != nil {
		t.Fatal(err)
	}
	em := DefaultConfig()
	em.PruneClasses = false
	em.MaxCycles = 60
	eng, err := NewEngine(train.All(), over, em, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.InitRandom(3); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	selected := HeldoutLogLik(res.Best, test.All())
	overfit := HeldoutLogLik(over, test.All())
	// Per-instance held-out log-likelihood comparison.
	nTest := float64(test.N())
	if selected/nTest < overfit/nTest-0.02 {
		t.Fatalf("selected model heldout LL %.4f/instance worse than overfit %.4f/instance",
			selected/nTest, overfit/nTest)
	}
	// Sanity: heldout LL is finite and negative for continuous data.
	if selected >= 0 || math.IsInf(selected, 0) || math.IsNaN(selected) {
		t.Fatalf("heldout LL %v", selected)
	}
}
