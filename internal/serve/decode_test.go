package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// decodeSchemas are the wire schemas the decoder tests build rows under:
// the paper model's two reals, and a real beside a three-level discrete.
var decodeSchemas = [][]AttrSpec{
	{{Name: "x", Type: "real"}, {Name: "y", Type: "real"}},
	{{Name: "x", Type: "real"}, {Name: "c", Type: "discrete", Levels: []string{"a", "b", "c"}}},
}

// jsonDecodePredict is the reference decode the one-pass decoder must
// match: encoding/json into PredictRequest (then buildDataset).
func jsonDecodePredict(body []byte) (PredictRequest, error) {
	var req PredictRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// sameDataset reports whether two datasets hold the same rows bit for bit
// (Dataset.Equal lets -0 match +0).
func sameDataset(a, b *dataset.Dataset) bool {
	if a.N() != b.N() || a.NumAttrs() != b.NumAttrs() {
		return false
	}
	for i := 0; i < a.N(); i++ {
		for k := 0; k < a.NumAttrs(); k++ {
			if math.Float64bits(a.Value(i, k)) != math.Float64bits(b.Value(i, k)) {
				return false
			}
		}
	}
	return true
}

// FuzzPredictRequest holds the one-pass predict decoder to encoding/json:
// for any body, decodePredict and json.Decoder.Decode into
// PredictRequest either both fail with the same error or agree on the
// version and row count, and then under every schema buildDataset and the
// decoded body's dataset either both fail with the same error or hold the
// same rows bit for bit (null cells as Missing). A flat decode never
// allocates more cells than the body has bytes.
func FuzzPredictRequest(f *testing.F) {
	for _, s := range []string{
		`{"rows":[[1.5,-2],[null,3e-5]],"version":2}`,
		`{"rows":[[0.25,2]]}`,
		" \t\n{ \"rows\" :\r[ [ 1 , 2 ] ,\n[3,4] ] , \"version\" : 1 , \"parallelism\" : 4 }\n ",
		`{"version":1,"rows":[[1,2]],"parallelism":-3}`,
		`{"Rows":[[1,2]]}`,
		`{"rows":[[1,2]],"rows":[[3,4]]}`,
		`{"rows":[[1,2]],"version":1,"version":2}`,
		`{"rows":[[1,2]]}`,
		`{"rows":[[1e400,2]]}`,
		`{"rows":[[-1e400,2]]}`,
		`{"rows":[[1e-400,2]]}`,
		`{"rows":[[-0,-0.0]]}`,
		`{"rows":[null]}`,
		`{"rows":null}`,
		`{"rows":[[null,null]],"version":null}`,
		`{"rows":[[1,2]]} trailing`,
		`{"rows":[[1,2]]}{"rows":[[3,4]]}`,
		`{"rows":[[1,2]],"version":1.0}`,
		`{"rows":[[1,2]],"version":1e0}`,
		`{"rows":[[1,2]],"version":-1}`,
		`{"rows":[[1,2]],"version":99999999999999999999}`,
		`{"rows":[[1,2]],"extra":true}`,
		`{"rows":[[1,2],[3]]}`,
		`{"rows":[[1,2,3]]}`,
		`{"rows":[[]]}`,
		`{"rows":[]}`,
		`{}`,
		`{"rows":[[0,2.5]]}`,
		`{"rows":[[01,2]]}`,
		`{"rows":[[1.,2]]}`,
		`{"rows":[[.5,2]]}`,
		`{"rows":[[1,2]]`,
		`{"rows":[[1,2],]}`,
		`{"rows":[["1",2]]}`,
		`null`,
		`[]`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, wantErr := jsonDecodePredict(body)
		in, err := decodePredict(body)
		if (wantErr == nil) != (err == nil) || wantErr != nil && wantErr.Error() != err.Error() {
			t.Fatalf("decode: encoding/json error %v, decodePredict error %v", wantErr, err)
		}
		if wantErr != nil {
			return
		}
		if in.flat && cap(in.vals) > len(body) {
			t.Fatalf("flat decode holds %d cells for a %d-byte body", cap(in.vals), len(body))
		}
		if in.version != req.Version || in.n != len(req.Rows) {
			t.Fatalf("decodePredict: version %d, %d rows; encoding/json: version %d, %d rows",
				in.version, in.n, req.Version, len(req.Rows))
		}
		for _, specs := range decodeSchemas {
			want, wantErr := buildDataset("predict", specs, req.Rows)
			got, err := in.dataset(specs)
			if (wantErr == nil) != (err == nil) || wantErr != nil && wantErr.Error() != err.Error() {
				t.Fatalf("dataset: buildDataset error %v, decoded body error %v", wantErr, err)
			}
			if wantErr == nil && !sameDataset(want, got) {
				t.Fatalf("decoded rows differ from buildDataset's")
			}
		}
	})
}

// TestDecodePredictFlat pins which bodies take the one-pass path: every
// body json.Marshal writes for a PredictRequest, indented or not, and
// none of the shapes whose meaning only encoding/json defines.
func TestDecodePredictFlat(t *testing.T) {
	ho, err := datagen.Paper(300, 9)
	if err != nil {
		t.Fatal(err)
	}
	_, rows := wireRows(ho)
	rows[7][1] = nil
	for _, req := range []PredictRequest{
		{Rows: rows},
		{Rows: rows[:1], Version: 3},
		{Rows: rows[:47], Version: 2, Parallelism: 4},
	} {
		compact, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		indented, err := json.MarshalIndent(req, " ", "\t")
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range [][]byte{compact, indented} {
			in, err := decodePredict(body)
			if err != nil {
				t.Fatal(err)
			}
			if !in.flat || in.n != len(req.Rows) || in.version != req.Version {
				t.Fatalf("%.40s…: flat %v, %d rows, version %d; want flat, %d rows, version %d",
					body, in.flat, in.n, in.version, len(req.Rows), req.Version)
			}
			want, err := buildDataset("predict", decodeSchemas[0], req.Rows)
			if err != nil {
				t.Fatal(err)
			}
			got, err := in.dataset(decodeSchemas[0])
			if err != nil {
				t.Fatal(err)
			}
			if !sameDataset(want, got) {
				t.Fatalf("%.40s…: flat rows differ from buildDataset's", body)
			}
		}
	}
	for _, body := range []string{
		`{"Rows":[[1,2]]}`,
		`{"rows":[[1,2]],"rows":[[1,2]]}`,
		`{"rows":[[1e400,2]]}`,
		`{"rows":[[1,2]],"version":null}`,
		`{"rows":[[1,2]],"version":1.0}`,
		`{"rows":[[1,2]],"extra":0}`,
		`{"rows":[[1,2],[3]]}`,
		`{"rows":[null]}`,
		`{"rows":[[1,2]]} x`,
	} {
		if in, ok := parsePredict([]byte(body)); ok {
			t.Errorf("%s: one-pass decode took it (%d rows)", body, in.n)
		}
	}
}

// TestDecodePredictAllocs checks the one-pass decode allocates per body,
// not per cell: a canonical 256-row body costs the one value slice.
func TestDecodePredictAllocs(t *testing.T) {
	ho, err := datagen.Paper(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, rows := wireRows(ho)
	body, err := json.Marshal(PredictRequest{Rows: rows, Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := decodePredict(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("decodePredict of a %d-row body: %v allocations, want 1", len(rows), allocs)
	}
}
