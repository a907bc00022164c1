package dataset

import (
	"bytes"
	"encoding/binary"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func sampleDataset(t testing.TB) *Dataset {
	t.Helper()
	ds := MustNew("sample", []Attribute{
		{Name: "x", Type: Real},
		{Name: "y", Type: Real},
		{Name: "color", Type: Discrete, Levels: []string{"red", "green", "blue"}},
	})
	rows := [][]float64{
		{1.5, -2.25, 0},
		{Missing, 7, 2},
		{3.125, Missing, Missing},
		{0, 0, 1},
	}
	for _, r := range rows {
		if err := ds.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestTextRoundTrip(t *testing.T) {
	ds := sampleDataset(t)
	var buf bytes.Buffer
	if err := WriteText(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Equal(got) {
		t.Fatal("text round trip lost data")
	}
	if got.Name != "sample" {
		t.Fatalf("name %q", got.Name)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	ds := sampleDataset(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Equal(got) {
		t.Fatal("binary round trip lost data")
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"bad-magic":     "nonsense\n",
		"no-separator":  "# pautoclass dataset v1\nreal x\n",
		"bad-kind":      "# pautoclass dataset v1\ninteger x\n---\n",
		"real-extra":    "# pautoclass dataset v1\nreal x y\n---\n",
		"discrete-few":  "# pautoclass dataset v1\ndiscrete c a\n---\n",
		"short-row":     "# pautoclass dataset v1\nreal x\nreal y\n---\n1.0\n",
		"bad-level":     "# pautoclass dataset v1\ndiscrete c a b\n---\nz\n",
		"bad-float":     "# pautoclass dataset v1\nreal x\n---\nfoo\n",
		"no-attributes": "# pautoclass dataset v1\n---\n",
	}
	for name, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("case %q: expected error", name)
		}
	}
}

func TestReadTextSkipsCommentsAndBlanks(t *testing.T) {
	in := `# pautoclass dataset v1
# name: c
# a comment
real x

---
# data comment
1.0

2.0
`
	ds, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 2 || ds.Value(1, 0) != 2 {
		t.Fatalf("got %d rows", ds.N())
	}
}

func TestReadBinaryErrors(t *testing.T) {
	// Truncations of a valid stream at every prefix length must error,
	// never panic or succeed (except the full length).
	ds := sampleDataset(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(full))
		}
	}
	// Corrupt magic.
	bad := append([]byte(nil), full...)
	bad[0] = 'X'
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Corrupt version.
	bad = append([]byte(nil), full...)
	bad[4] = 99
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad version accepted")
	}
}

// claimRowsInput is a 45-byte binary stream — the header of an empty
// two-attribute dataset — whose row count claims 2^22 rows it does not
// carry.
func claimRowsInput(t testing.TB) []byte {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, MustNew("d", twoRealSchema())); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint64(b[len(b)-8:], 1<<22)
	return b
}

// TestReadBinaryBoundsPresize: a header's row count buys no memory the
// input does not back. The claiming stream must fail as truncated at row 0
// having allocated far less than its claimed 64 MiB — from a reader that
// reports its size and from an opaque stream alike.
func TestReadBinaryBoundsPresize(t *testing.T) {
	in := claimRowsInput(t)
	for name, r := range map[string]io.Reader{
		"sized":  bytes.NewReader(in),
		"stream": struct{ io.Reader }{bytes.NewReader(in)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(r)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "truncated at row 0") {
			t.Errorf("%s: err = %v, want truncation at row 0", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("%s: %d B allocated for a %d-byte input", name, got, len(in))
		}
	}
}

// FuzzReadBinary: any bytes give an error or a dataset that survives a
// WriteBinary/ReadBinary round trip unchanged.
func FuzzReadBinary(f *testing.F) {
	for _, ds := range []*Dataset{sampleDataset(f), MustNew("empty", mixedSchema())} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, ds); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(claimRowsInput(f))
	f.Fuzz(func(t *testing.T, in []byte) {
		ds, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, ds); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-reading a written dataset: %v", err)
		}
		if !back.Equal(ds) || back.Name != ds.Name {
			t.Fatal("binary round trip changed the dataset")
		}
	})
}

func TestSaveLoadFile(t *testing.T) {
	ds := sampleDataset(t)
	dir := t.TempDir()
	for _, name := range []string{"d.txt", "d.bin"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, ds); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !ds.Equal(got) {
			t.Fatalf("%s: round trip lost data", name)
		}
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("loading a missing file should error")
	}
}

func TestLargeRoundTrip(t *testing.T) {
	ds := MustNew("big", []Attribute{{Name: "x", Type: Real}, {Name: "y", Type: Real}})
	ds.Grow(5000)
	for i := 0; i < 5000; i++ {
		ds.AppendRow([]float64{float64(i) * 0.5, float64(-i)})
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Equal(got) {
		t.Fatal("large binary round trip lost data")
	}
}
