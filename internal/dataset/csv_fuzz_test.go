package dataset

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

// csvAllocBudget bounds the bytes one ReadCSVWith call may allocate for an
// input of n bytes: a fixed multiple of the input plus the reader's
// constant buffers. The multiple is set by the costliest byte: one comma
// of a wide header adds a whole inferred attribute (its name, two filler
// levels, the level index and the schema check's maps), about 600 bytes.
func csvAllocBudget(n int) uint64 { return 1024*uint64(n) + 1<<20 }

// checkCSVDataset fails unless every value of ds is admissible under its
// schema: a level index or NaN in a discrete column, a finite number or
// NaN in a real one.
func checkCSVDataset(t *testing.T, ds *Dataset) {
	t.Helper()
	for i := 0; i < ds.N(); i++ {
		for k := 0; k < ds.NumAttrs(); k++ {
			v := ds.Value(i, k)
			if IsMissing(v) {
				continue
			}
			a := ds.Attr(k)
			if a.Type == Discrete {
				if idx := int(v); float64(idx) != v || idx < 0 || idx >= a.Cardinality() {
					t.Fatalf("row %d attribute %q: %v is not a level index", i, a.Name, v)
				}
			} else if math.IsInf(v, 0) {
				t.Fatalf("row %d attribute %q: infinite value", i, a.Name)
			}
		}
	}
	ds.Summarize()
}

// FuzzReadCSVWith: for any bytes, ReadCSVWith with a fixed two-attribute
// schema and with schema inference returns an error or a dataset whose
// values fit its schema — never a panic — and allocates at most a fixed
// multiple of the input size.
func FuzzReadCSVWith(f *testing.F) {
	f.Add([]byte("x,c\n1.5,a\n?,b\n-2,NA\n"))
	schema := []Attribute{
		{Name: "x", Type: Real},
		{Name: "c", Type: Discrete, Levels: []string{"a", "b"}},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, opts := range []CSVOptions{{Attrs: schema}, {}} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ds, err := ReadCSVWith(bytes.NewReader(data), "fuzz", opts)
			runtime.ReadMemStats(&after)
			if got, budget := after.TotalAlloc-before.TotalAlloc, csvAllocBudget(len(data)); got > budget {
				t.Fatalf("%d input bytes allocated %d bytes (budget %d)", len(data), got, budget)
			}
			if err != nil {
				continue
			}
			checkCSVDataset(t, ds)
		}
	})
}
