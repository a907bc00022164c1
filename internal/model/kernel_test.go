package model

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// kernelCaseDS builds one dataset per term kind, deliberately spanning the
// missing-value patterns each kernel special-cases: fully known columns,
// sparse missing entries, and (for the multi-normal) rows with partially
// and fully missing blocks.
func kernelCases(t *testing.T, n int) []struct {
	name string
	ds   *dataset.Dataset
	spec BlockSpec
} {
	t.Helper()
	real1 := dataset.MustNew("real", []dataset.Attribute{{Name: "x", Type: dataset.Real}})
	pos1 := dataset.MustNew("pos", []dataset.Attribute{{Name: "x", Type: dataset.Real}})
	disc1 := dataset.MustNew("disc", []dataset.Attribute{
		{Name: "c", Type: dataset.Discrete, Levels: []string{"a", "b", "c", "d"}},
	})
	real3 := dataset.MustNew("real3", []dataset.Attribute{
		{Name: "x", Type: dataset.Real},
		{Name: "y", Type: dataset.Real},
		{Name: "z", Type: dataset.Real},
	})
	for i := 0; i < n; i++ {
		// Deterministic pseudo-random values; every 7th is missing.
		u := func(salt int) float64 {
			h := uint64(i)*2654435761 + uint64(salt)*40503
			return float64(h%10007) / 10007.0
		}
		miss := func(salt int) bool { return (i+salt)%7 == 0 }
		xv := 4*u(1) - 2
		if miss(0) {
			xv = dataset.Missing
		}
		if err := real1.AppendRow([]float64{xv}); err != nil {
			t.Fatal(err)
		}
		pv := 0.1 + 50*u(2)
		if miss(1) {
			pv = dataset.Missing
		}
		if err := pos1.AppendRow([]float64{pv}); err != nil {
			t.Fatal(err)
		}
		cv := float64(int(u(3) * 4))
		if miss(2) {
			cv = dataset.Missing
		}
		if err := disc1.AppendRow([]float64{cv}); err != nil {
			t.Fatal(err)
		}
		row := []float64{6 * u(4), 10 * u(5), u(6) - 3}
		// Partial and fully missing blocks both occur.
		for k := range row {
			if (i+k)%5 == 0 {
				row[k] = dataset.Missing
			}
		}
		if err := real3.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return []struct {
		name string
		ds   *dataset.Dataset
		spec BlockSpec
	}{
		{"single_normal", real1, BlockSpec{Kind: SingleNormal, Attrs: []int{0}}},
		{"single_normal_ln", pos1, BlockSpec{Kind: LogNormal, Attrs: []int{0}}},
		{"single_multinomial", disc1, BlockSpec{Kind: SingleMultinomial, Attrs: []int{0}}},
		{"multi_normal", real3, BlockSpec{Kind: MultiNormal, Attrs: []int{0, 1, 2}}},
	}
}

// fitTerm moves a freshly constructed term off its prior parameters by one
// weighted statistics pass over the data, so kernels are compared against
// realistic mid-run parameters rather than the symmetric starting point.
func fitTerm(term Term, ds *dataset.Dataset, phase int) {
	st := make([]float64, term.StatsSize())
	for i := 0; i < ds.N(); i++ {
		w := 0.1 + float64((i*31+phase*17)%100)/100.0
		term.AccumulateStats(ds.Row(i), w, st)
	}
	term.Update(st)
}

// TestKernelMatchesTermLogProb checks BlockLogProb against the per-row
// reference for every term kind, across block boundaries (sub-ranges of
// every alignment) and missing-value patterns, to ≤1e-12 relative — and
// that Refresh picks up parameter updates.
func TestKernelMatchesTermLogProb(t *testing.T) {
	const n = 300
	for _, tc := range kernelCases(t, n) {
		t.Run(tc.name, func(t *testing.T) {
			pr := NewPriors(tc.ds, tc.ds.Summarize())
			term, err := NewTerm(tc.spec, tc.ds, pr)
			if err != nil {
				t.Fatal(err)
			}
			fitTerm(term, tc.ds, 1)
			cols := tc.ds.All().Columns()
			kern := term.Kernel()
			ranges := [][2]int{{0, n}, {0, 1}, {1, n}, {n - 1, n}, {n / 3, 2 * n / 3}, {0, 0}}
			for phase := 1; phase <= 2; phase++ {
				for _, r := range ranges {
					lo, hi := r[0], r[1]
					out := make([]float64, hi-lo)
					for i := range out {
						out[i] = 10.5 // sentinel: kernels must ADD, not assign
					}
					kern.BlockLogProb(cols, lo, hi, out, &Scratch{})
					for i := lo; i < hi; i++ {
						want := 10.5 + term.LogProb(tc.ds.Row(i))
						if !stats.AlmostEqual(out[i-lo], want, 1e-12) {
							t.Fatalf("phase %d rows [%d,%d): row %d logprob %v, reference %v",
								phase, lo, hi, i, out[i-lo], want)
						}
					}
				}
				// Second phase: update the parameters and Refresh the SAME
				// kernel object — stale constants would fail the recheck.
				fitTerm(term, tc.ds, 2)
				kern.Refresh()
			}
		})
	}
}

// TestKernelMatchesTermStats checks BlockAccumulateStats against the
// per-row AccumulateStats for every term kind and the same range/missing
// coverage, to ≤1e-12 relative.
func TestKernelMatchesTermStats(t *testing.T) {
	const n = 300
	for _, tc := range kernelCases(t, n) {
		t.Run(tc.name, func(t *testing.T) {
			pr := NewPriors(tc.ds, tc.ds.Summarize())
			term, err := NewTerm(tc.spec, tc.ds, pr)
			if err != nil {
				t.Fatal(err)
			}
			fitTerm(term, tc.ds, 3)
			cols := tc.ds.All().Columns()
			kern := term.Kernel()
			wts := make([]float64, n)
			for i := range wts {
				wts[i] = float64((uint64(i)*2654435761)%1009) / 1009.0
			}
			for _, r := range [][2]int{{0, n}, {0, 1}, {1, n}, {n - 1, n}, {n / 3, 2 * n / 3}} {
				lo, hi := r[0], r[1]
				ref := make([]float64, term.StatsSize())
				for i := lo; i < hi; i++ {
					term.AccumulateStats(tc.ds.Row(i), wts[i], ref)
				}
				got := make([]float64, term.StatsSize())
				kern.BlockAccumulateStats(cols, wts[lo:hi], lo, hi, got, &Scratch{})
				for s := range ref {
					if !stats.AlmostEqual(got[s], ref[s], 1e-12) && !(got[s] == 0 && ref[s] == 0) {
						t.Fatalf("rows [%d,%d): stat %d = %v, reference %v", lo, hi, s, got[s], ref[s])
					}
				}
			}
		})
	}
}

// TestKernelLogProbFiniteness: kernels must never turn a representable
// log-density into NaN — a NaN would silently poison the E-step's
// normalization.
func TestKernelLogProbFiniteness(t *testing.T) {
	for _, tc := range kernelCases(t, 100) {
		pr := NewPriors(tc.ds, tc.ds.Summarize())
		term, err := NewTerm(tc.spec, tc.ds, pr)
		if err != nil {
			t.Fatal(err)
		}
		cols := tc.ds.All().Columns()
		out := make([]float64, 100)
		term.Kernel().BlockLogProb(cols, 0, 100, out, &Scratch{})
		for i, v := range out {
			if math.IsNaN(v) {
				t.Fatalf("%s: row %d produced NaN", tc.name, i)
			}
		}
	}
}

// TestKernelConcurrentBlockCalls pins the Kernel concurrency contract: one
// kernel serves several goroutines at once, each with its own Scratch, and
// every goroutine gets bitwise the results of a solo call. Run under -race
// it also proves Block calls write nothing shared.
func TestKernelConcurrentBlockCalls(t *testing.T) {
	const n, workers, rounds = 300, 4, 20
	for _, tc := range kernelCases(t, n) {
		t.Run(tc.name, func(t *testing.T) {
			pr := NewPriors(tc.ds, tc.ds.Summarize())
			term, err := NewTerm(tc.spec, tc.ds, pr)
			if err != nil {
				t.Fatal(err)
			}
			fitTerm(term, tc.ds, 1)
			cols := tc.ds.All().Columns()
			kern := term.Kernel()
			wts := make([]float64, n)
			for i := range wts {
				wts[i] = float64((uint64(i)*2654435761)%1009) / 1009.0
			}
			wantLP := make([]float64, n)
			kern.BlockLogProb(cols, 0, n, wantLP, &Scratch{})
			wantST := make([]float64, term.StatsSize())
			kern.BlockAccumulateStats(cols, wts, 0, n, wantST, &Scratch{})
			errs := make(chan string, workers)
			for w := 0; w < workers; w++ {
				go func() {
					var s Scratch
					for r := 0; r < rounds; r++ {
						lp := make([]float64, n)
						kern.BlockLogProb(cols, 0, n, lp, &s)
						st := make([]float64, len(wantST))
						kern.BlockAccumulateStats(cols, wts, 0, n, st, &s)
						for i := range lp {
							if math.Float64bits(lp[i]) != math.Float64bits(wantLP[i]) {
								errs <- "log-prob differs from the solo call"
								return
							}
						}
						for i := range st {
							if math.Float64bits(st[i]) != math.Float64bits(wantST[i]) {
								errs <- "statistics differ from the solo call"
								return
							}
						}
					}
					errs <- ""
				}()
			}
			for w := 0; w < workers; w++ {
				if msg := <-errs; msg != "" {
					t.Error(msg)
				}
			}
		})
	}
}
