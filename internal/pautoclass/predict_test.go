package pautoclass

import (
	"fmt"
	"testing"

	"repro/internal/autoclass"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mpi"
)

// predictFixture fits a small classification and draws a held-out batch
// (missing values and one all-missing row included).
func predictFixture(t *testing.T, n int) (*autoclass.Classification, *dataset.Dataset) {
	t.Helper()
	train, err := datagen.Paper(400, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := autoclass.DefaultSearchConfig()
	cfg.StartJList = []int{3}
	cfg.Tries = 1
	cfg.EM.MaxCycles = 20
	res, err := autoclass.Search(train, model.DefaultSpec(train), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ho, err := datagen.Paper(n, 71)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := datagen.InjectMissing(ho, 0.1, 73); err != nil {
		t.Fatal(err)
	}
	if n > 2 {
		for k := 0; k < ho.NumAttrs(); k++ {
			if err := ho.SetMissing(n/2, k); err != nil {
				t.Fatal(err)
			}
		}
	}
	return res.Best, ho
}

func comparePredictions(t *testing.T, label string, got, want *autoclass.Prediction) {
	t.Helper()
	if got.J != want.J || got.N() != want.N() {
		t.Fatalf("%s: shape J=%d N=%d, want J=%d N=%d", label, got.J, got.N(), want.J, want.N())
	}
	if got.LogLik != want.LogLik {
		t.Errorf("%s: LogLik %v, want %v (diff %g)", label, got.LogLik, want.LogLik, got.LogLik-want.LogLik)
	}
	for i := 0; i < want.N(); i++ {
		if got.MAP[i] != want.MAP[i] {
			t.Fatalf("%s: row %d MAP %d, want %d", label, i, got.MAP[i], want.MAP[i])
		}
	}
	for i := range want.Memberships {
		if got.Memberships[i] != want.Memberships[i] {
			t.Fatalf("%s: membership flat index %d: %v, want %v",
				label, i, got.Memberships[i], want.Memberships[i])
		}
	}
}

// TestPredictRanksBitwise is the scale-out predict property test: the
// rank-sharded scorer must return the bitwise-identical prediction to the
// single-process path at every rank count — batch sizes off and on the
// block/partition grid, rank counts that leave trailing ranks empty, and
// both the mem and TCP transports.
func TestPredictRanksBitwise(t *testing.T) {
	for _, n := range []int{100, 512, 777, 1300} {
		cls, ho := predictFixture(t, n)
		want, err := autoclass.Predict(cls, ho, autoclass.PredictConfig{RowLogLik: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 3, 5} {
			results := make([]*autoclass.Prediction, p)
			err := mpi.Run(p, func(c *mpi.Comm) error {
				r, err := Predict(c, cls, ho, autoclass.PredictConfig{RowLogLik: true})
				if err != nil {
					return err
				}
				results[c.Rank()] = r
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			// Every rank holds the complete, identical result.
			for r := 0; r < p; r++ {
				comparePredictions(t, fmt.Sprintf("mem n=%d p=%d rank=%d", n, p, r), results[r], want)
				for i := range want.RowLL {
					if results[r].RowLL[i] != want.RowLL[i] {
						t.Fatalf("mem n=%d p=%d rank=%d: RowLL[%d] %v, want %v",
							n, p, r, i, results[r].RowLL[i], want.RowLL[i])
					}
				}
			}
		}
	}
}

// TestPredictTCPBitwise runs the same equivalence over the TCP transport —
// the wire the daemon's scale-out predict workers use.
func TestPredictTCPBitwise(t *testing.T) {
	cls, ho := predictFixture(t, 700)
	want, err := autoclass.Predict(cls, ho, autoclass.PredictConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var got *autoclass.Prediction
	err = mpi.RunWith(3, mpi.RunConfig{TCP: true}, func(c *mpi.Comm) error {
		r, err := Predict(c, cls, ho, autoclass.PredictConfig{Parallelism: 2})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			got = r
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	comparePredictions(t, "tcp p=3", got, want)
	if len(got.RowLL) != 0 {
		t.Errorf("RowLL retained without RowLogLik: %d entries", len(got.RowLL))
	}
}

// TestPredictValidation covers the refusal paths.
func TestPredictValidation(t *testing.T) {
	cls, ho := predictFixture(t, 100)
	err := mpi.Run(2, func(c *mpi.Comm) error {
		if _, err := Predict(c, cls, nil, autoclass.PredictConfig{}); err == nil {
			return fmt.Errorf("nil dataset accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Predict(nil, cls, ho, autoclass.PredictConfig{}); err == nil {
		t.Error("nil communicator accepted")
	}
}
