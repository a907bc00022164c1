package dataset

import (
	"os"
	"strings"
	"testing"
)

func TestReadCSVBasic(t *testing.T) {
	in := `x,y,color
1.5,2,red
0.5,-3,blue
2.25,0.125,red
`
	ds, err := ReadCSV(strings.NewReader(in), "csvtest")
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 3 || ds.NumAttrs() != 3 {
		t.Fatalf("N=%d attrs=%d", ds.N(), ds.NumAttrs())
	}
	if ds.Attr(0).Type != Real || ds.Attr(1).Type != Real {
		t.Fatal("numeric columns should be Real")
	}
	if ds.Attr(2).Type != Discrete {
		t.Fatal("string column should be Discrete")
	}
	if got := ds.Attr(2).Levels; len(got) != 2 || got[0] != "red" || got[1] != "blue" {
		t.Fatalf("levels %v", got)
	}
	if ds.Value(1, 2) != 1 { // blue
		t.Fatalf("row 1 color %v", ds.Value(1, 2))
	}
	if ds.Value(2, 0) != 2.25 {
		t.Fatalf("row 2 x %v", ds.Value(2, 0))
	}
}

func TestReadCSVMissingTokens(t *testing.T) {
	in := `a,b
1,x
?,y
NA,x
nan,?
,y
3,x
`
	ds, err := ReadCSV(strings.NewReader(in), "m")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Attr(0).Type != Real {
		t.Fatal("column a should stay Real despite missing tokens")
	}
	missing := 0
	for i := 0; i < ds.N(); i++ {
		if IsMissing(ds.Value(i, 0)) {
			missing++
		}
	}
	if missing != 4 {
		t.Fatalf("column a missing count %d, want 4", missing)
	}
	if IsMissing(ds.Value(3, 1)) != true {
		t.Fatal("'?' in discrete column should be missing")
	}
}

func TestReadCSVMixedNumericStringsBecomeDiscrete(t *testing.T) {
	in := `v
1
2
high
`
	ds, err := ReadCSV(strings.NewReader(in), "mix")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Attr(0).Type != Discrete {
		t.Fatal("column with a non-numeric value must be Discrete")
	}
	if len(ds.Attr(0).Levels) != 3 {
		t.Fatalf("levels %v", ds.Attr(0).Levels)
	}
}

func TestReadCSVConstantColumnPadded(t *testing.T) {
	in := `c,x
only,1
only,2
`
	ds, err := ReadCSV(strings.NewReader(in), "const")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Attr(0).Cardinality() < 2 {
		t.Fatalf("constant discrete column not padded: %v", ds.Attr(0).Levels)
	}
}

// A constant column whose one value is spelled like the synthetic
// filler level still gets two distinct levels.
func TestReadCSVConstantColumnNamedLikeFiller(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader("a,b\n_level1,1\n_level1,2\n"), "filler")
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.Attr(0).Levels; len(got) != 2 || got[0] != "_level1" || got[1] == got[0] {
		t.Fatalf("levels %v", got)
	}
	if ds.Value(1, 0) != 0 {
		t.Fatalf("row 1 value %v, want level 0", ds.Value(1, 0))
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"ragged":     "a,b\n1\n",
		"bad-header": "\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in), "bad"); err == nil {
			t.Errorf("case %q accepted", name)
		}
	}
}

func TestReadCSVUnnamedColumns(t *testing.T) {
	in := `,b
1,2
`
	ds, err := ReadCSV(strings.NewReader(in), "anon")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Attr(0).Name != "col0" {
		t.Fatalf("unnamed column got %q", ds.Attr(0).Name)
	}
}

func TestReadCSVAllMissingColumn(t *testing.T) {
	in := `a,b
?,1
?,2
`
	ds, err := ReadCSV(strings.NewReader(in), "allmiss")
	if err != nil {
		t.Fatal(err)
	}
	// An all-missing column cannot be typed Real (no evidence): it becomes
	// a padded discrete column of missing values.
	if ds.Attr(0).Type != Discrete {
		t.Fatalf("all-missing column type %v", ds.Attr(0).Type)
	}
	for i := 0; i < ds.N(); i++ {
		if !IsMissing(ds.Value(i, 0)) {
			t.Fatal("all-missing column has a value")
		}
	}
}

func TestReadCSVRoundTripThroughEngineFormats(t *testing.T) {
	in := `x,grade
1.0,good
2.5,bad
0.5,good
`
	ds, err := ReadCSV(strings.NewReader(in), "rt")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteText(&sb, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !ds.Equal(back) {
		t.Fatal("CSV import does not survive the native round trip")
	}
}

func TestLoadFileCSVExtension(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/mydata.csv"
	if err := writeFileForTest(path, "x,y\n1,2\n3,4\n"); err != nil {
		t.Fatal(err)
	}
	ds, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 2 || ds.Name != "mydata" {
		t.Fatalf("N=%d name=%q", ds.N(), ds.Name)
	}
}

func writeFileForTest(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
