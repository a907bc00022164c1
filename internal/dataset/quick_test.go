package dataset

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// randomDataset builds a random-schema dataset from a seed: 1–4 attributes
// of mixed types, 0–40 rows with ~10% missing values.
func randomDataset(seed uint64) *Dataset {
	r := rng.New(seed)
	na := r.Intn(4) + 1
	attrs := make([]Attribute, na)
	for k := range attrs {
		if r.Float64() < 0.5 {
			attrs[k] = Attribute{Name: attrName(k), Type: Real}
		} else {
			levels := make([]string, r.Intn(4)+2)
			for i := range levels {
				levels[i] = string(rune('a'+k)) + string(rune('0'+i))
			}
			attrs[k] = Attribute{Name: attrName(k), Type: Discrete, Levels: levels}
		}
	}
	ds := MustNew("random", attrs)
	n := r.Intn(41)
	row := make([]float64, na)
	for i := 0; i < n; i++ {
		for k := range row {
			if r.Float64() < 0.1 {
				row[k] = Missing
				continue
			}
			if attrs[k].Type == Real {
				row[k] = r.NormMS(0, 100)
			} else {
				row[k] = float64(r.Intn(attrs[k].Cardinality()))
			}
		}
		if err := ds.AppendRow(row); err != nil {
			panic(err)
		}
	}
	return ds
}

func attrName(k int) string { return string(rune('p' + k)) }

// Property: the text format round-trips any valid dataset exactly.
func TestQuickTextRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		ds := randomDataset(seed)
		var buf bytes.Buffer
		if err := WriteText(&buf, ds); err != nil {
			return false
		}
		back, err := ReadText(&buf)
		if err != nil {
			return false
		}
		return ds.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the binary format round-trips any valid dataset exactly.
func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		ds := randomDataset(seed)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, ds); err != nil {
			return false
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return ds.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: summaries respect basic invariants for any dataset — known +
// missing counts per attribute equal N, min <= mean <= max for reals, and
// discrete counts sum to the known count.
func TestQuickSummaryInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		ds := randomDataset(seed)
		s := ds.Summarize()
		if s.N != ds.N() {
			return false
		}
		for k := 0; k < ds.NumAttrs(); k++ {
			switch ds.Attr(k).Type {
			case Real:
				known := int(s.Real[k].Weight())
				if known+s.MissingCount[k] != ds.N() {
					return false
				}
				if known > 0 {
					m := s.Real[k].Mean()
					if m < s.Min[k]-1e-9 || m > s.Max[k]+1e-9 || math.IsNaN(m) {
						return false
					}
				}
			case Discrete:
				total := 0
				for _, c := range s.Counts[k] {
					total += c
				}
				if total+s.MissingCount[k] != ds.N() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: partition views see exactly the dataset's rows in order, for
// any rank count.
func TestQuickPartitionViewsCoverage(t *testing.T) {
	f := func(seed uint64, pRaw uint8) bool {
		ds := randomDataset(seed)
		p := int(pRaw%12) + 1
		views, err := PartitionViews(ds, p)
		if err != nil {
			return false
		}
		idx := 0
		for _, v := range views {
			for i := 0; i < v.N(); i++ {
				want := ds.RowTo(nil, idx)
				got := v.RowTo(nil, i)
				for k := range want {
					if got[k] != want[k] && !(math.IsNaN(got[k]) && math.IsNaN(want[k])) {
						return false
					}
				}
				idx++
			}
		}
		return idx == ds.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
