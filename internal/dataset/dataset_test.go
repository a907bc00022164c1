package dataset

import (
	"math"
	"testing"
	"testing/quick"
)

func twoRealSchema() []Attribute {
	return []Attribute{
		{Name: "x", Type: Real},
		{Name: "y", Type: Real},
	}
}

func mixedSchema() []Attribute {
	return []Attribute{
		{Name: "x", Type: Real},
		{Name: "color", Type: Discrete, Levels: []string{"red", "green", "blue"}},
	}
}

func TestNewRejectsBadSchemas(t *testing.T) {
	cases := map[string][]Attribute{
		"empty":            {},
		"unnamed":          {{Name: "", Type: Real}},
		"real-with-levels": {{Name: "x", Type: Real, Levels: []string{"a", "b"}}},
		"one-level":        {{Name: "c", Type: Discrete, Levels: []string{"only"}}},
		"dup-level":        {{Name: "c", Type: Discrete, Levels: []string{"a", "a"}}},
		"empty-level":      {{Name: "c", Type: Discrete, Levels: []string{"a", ""}}},
		"dup-name":         {{Name: "x", Type: Real}, {Name: "x", Type: Real}},
		"bad-type":         {{Name: "x", Type: AttrType(99)}},
	}
	for name, attrs := range cases {
		if _, err := New("t", attrs); err == nil {
			t.Errorf("schema %q should be rejected", name)
		}
	}
}

func TestAppendAndAccess(t *testing.T) {
	ds := MustNew("t", mixedSchema())
	if err := ds.AppendRow([]float64{1.5, 2}); err != nil {
		t.Fatal(err)
	}
	if err := ds.AppendRow([]float64{Missing, 0}); err != nil {
		t.Fatal(err)
	}
	if ds.N() != 2 || ds.NumAttrs() != 2 {
		t.Fatalf("N=%d NumAttrs=%d", ds.N(), ds.NumAttrs())
	}
	if ds.Value(0, 0) != 1.5 || ds.Value(0, 1) != 2 {
		t.Fatalf("row 0 = %v", ds.RowTo(nil, 0))
	}
	if !IsMissing(ds.Value(1, 0)) {
		t.Fatal("missing value not preserved")
	}
}

func TestAppendRowValidation(t *testing.T) {
	ds := MustNew("t", mixedSchema())
	if err := ds.AppendRow([]float64{1}); err == nil {
		t.Error("short row accepted")
	}
	if err := ds.AppendRow([]float64{1, 3}); err == nil {
		t.Error("out-of-range level index accepted")
	}
	if err := ds.AppendRow([]float64{1, 1.5}); err == nil {
		t.Error("non-integer level index accepted")
	}
	if err := ds.AppendRow([]float64{math.Inf(1), 0}); err == nil {
		t.Error("infinite real accepted")
	}
	if ds.N() != 0 {
		t.Fatalf("failed appends must not grow the dataset, N=%d", ds.N())
	}
}

func TestViewWindows(t *testing.T) {
	ds := MustNew("t", twoRealSchema())
	for i := 0; i < 10; i++ {
		if err := ds.AppendRow([]float64{float64(i), float64(i * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	v, err := ds.View(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v.N() != 4 || v.Start() != 3 {
		t.Fatalf("view N=%d start=%d", v.N(), v.Start())
	}
	if v.Value(0, 0) != 3 || v.Value(3, 1) != 60 {
		t.Fatalf("view values wrong: %v %v", v.Value(0, 0), v.Value(3, 1))
	}
	if _, err := ds.View(8, 5); err == nil {
		t.Error("out-of-range view accepted")
	}
	if _, err := ds.View(-1, 2); err == nil {
		t.Error("negative view accepted")
	}
	all := ds.All()
	if all.N() != 10 {
		t.Fatalf("All() N=%d", all.N())
	}
}

func TestSummarize(t *testing.T) {
	ds := MustNew("t", mixedSchema())
	rows := [][]float64{
		{1, 0}, {2, 0}, {3, 1}, {Missing, 2}, {4, Missing},
	}
	for _, r := range rows {
		if err := ds.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	s := ds.Summarize()
	if s.N != 5 {
		t.Fatalf("N=%d", s.N)
	}
	if got := s.Real[0].Mean(); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("real mean %v, want 2.5", got)
	}
	if s.Min[0] != 1 || s.Max[0] != 4 {
		t.Fatalf("min/max = %v/%v", s.Min[0], s.Max[0])
	}
	if s.MissingCount[0] != 1 || s.MissingCount[1] != 1 {
		t.Fatalf("missing counts %v", s.MissingCount)
	}
	wantCounts := []int{2, 1, 1}
	for i, w := range wantCounts {
		if s.Counts[1][i] != w {
			t.Fatalf("counts = %v, want %v", s.Counts[1], wantCounts)
		}
	}
}

func TestCloneHeadEqual(t *testing.T) {
	ds := MustNew("t", twoRealSchema())
	for i := 0; i < 5; i++ {
		ds.AppendRow([]float64{float64(i), Missing})
	}
	c := ds.Clone()
	if !ds.Equal(c) {
		t.Fatal("clone not equal")
	}
	if err := c.SetMissing(0, 0); err != nil {
		t.Fatal(err)
	}
	if ds.Equal(c) {
		t.Fatal("clone shares storage with original")
	}
	h := ds.Head(3)
	if h.N() != 3 || h.Value(2, 0) != 2 {
		t.Fatalf("head wrong: N=%d", h.N())
	}
	if big := ds.Head(100); big.N() != 5 {
		t.Fatalf("Head beyond N should clamp, got %d", big.N())
	}
}

func TestBlockPartitionTiles(t *testing.T) {
	for _, c := range []struct{ n, p int }{
		{0, 1}, {1, 1}, {10, 3}, {10, 10}, {10, 16}, {100000, 7},
	} {
		parts, err := BlockPartition(c.n, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != c.p {
			t.Fatalf("(%d,%d): %d parts", c.n, c.p, len(parts))
		}
		pos := 0
		minLen, maxLen := c.n+1, -1
		for _, r := range parts {
			if r.Lo != pos {
				t.Fatalf("(%d,%d): gap or overlap at %d", c.n, c.p, pos)
			}
			if r.Len() < 0 {
				t.Fatalf("(%d,%d): negative block", c.n, c.p)
			}
			if r.Len() < minLen {
				minLen = r.Len()
			}
			if r.Len() > maxLen {
				maxLen = r.Len()
			}
			pos = r.Hi
		}
		if pos != c.n {
			t.Fatalf("(%d,%d): blocks cover %d of %d rows", c.n, c.p, pos, c.n)
		}
		if maxLen-minLen > 1 {
			t.Fatalf("(%d,%d): imbalanced blocks min=%d max=%d", c.n, c.p, minLen, maxLen)
		}
	}
}

func TestBlockPartitionErrors(t *testing.T) {
	if _, err := BlockPartition(10, 0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := BlockPartition(-1, 2); err == nil {
		t.Error("n<0 accepted")
	}
}

func TestQuickBlockPartitionProperty(t *testing.T) {
	f := func(nRaw uint16, pRaw uint8) bool {
		n := int(nRaw)
		p := int(pRaw%32) + 1
		parts, err := BlockPartition(n, p)
		if err != nil {
			return false
		}
		covered := 0
		pos := 0
		for _, r := range parts {
			if r.Lo != pos || r.Hi < r.Lo {
				return false
			}
			covered += r.Len()
			pos = r.Hi
		}
		return covered == n && pos == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionViews(t *testing.T) {
	ds := MustNew("t", twoRealSchema())
	for i := 0; i < 11; i++ {
		ds.AppendRow([]float64{float64(i), 0})
	}
	views, err := PartitionViews(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	next := 0.0
	for _, v := range views {
		for i := 0; i < v.N(); i++ {
			if v.Value(i, 0) != next {
				t.Fatalf("row order broken: got %v want %v", v.Value(i, 0), next)
			}
			next++
			total++
		}
	}
	if total != 11 {
		t.Fatalf("views cover %d rows", total)
	}
}

func TestGrowPreservesData(t *testing.T) {
	ds := MustNew("t", twoRealSchema())
	ds.AppendRow([]float64{1, 2})
	ds.Grow(1000)
	if ds.N() != 1 || ds.Value(0, 1) != 2 {
		t.Fatal("Grow corrupted data")
	}
}

func TestSplitShuffled(t *testing.T) {
	ds := MustNew("s", twoRealSchema())
	for i := 0; i < 100; i++ {
		ds.AppendRow([]float64{float64(i), 0})
	}
	train, test, err := SplitShuffled(ds, 0.7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if train.N()+test.N() != 100 {
		t.Fatalf("split sizes %d+%d", train.N(), test.N())
	}
	if train.N() != 70 {
		t.Fatalf("train N=%d", train.N())
	}
	// Every original value appears exactly once across the split.
	seen := make(map[float64]int)
	for _, part := range []*Dataset{train, test} {
		for i := 0; i < part.N(); i++ {
			seen[part.Value(i, 0)]++
		}
	}
	for i := 0; i < 100; i++ {
		if seen[float64(i)] != 1 {
			t.Fatalf("row %d appears %d times", i, seen[float64(i)])
		}
	}
	// Deterministic.
	train2, _, err := SplitShuffled(ds, 0.7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !train.Equal(train2) {
		t.Fatal("same-seed split differs")
	}
	// Different seed differs.
	train3, _, _ := SplitShuffled(ds, 0.7, 4)
	if train.Equal(train3) {
		t.Fatal("different-seed split identical")
	}
	// Shuffled, not a prefix.
	prefix := true
	for i := 0; i < train.N(); i++ {
		if train.Value(i, 0) != float64(i) {
			prefix = false
			break
		}
	}
	if prefix {
		t.Fatal("split is an unshuffled prefix")
	}
}

func TestSplitShuffledValidation(t *testing.T) {
	ds := MustNew("s", twoRealSchema())
	ds.AppendRow([]float64{1, 2})
	if _, _, err := SplitShuffled(ds, 0, 1); err == nil {
		t.Error("frac 0 accepted")
	}
	if _, _, err := SplitShuffled(ds, 1, 1); err == nil {
		t.Error("frac 1 accepted")
	}
	if _, _, err := SplitShuffled(ds, 0.5, 1); err == nil {
		t.Error("1-row dataset split accepted")
	}
}
