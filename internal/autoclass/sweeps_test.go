package autoclass

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/rng"
)

// unfusedBlockStep is the block step as every blocked path ran it before
// the three sweeps, kept as their bitwise oracle: fill each class vector
// with log π_j, add every term's BlockLogProb, normalize row-major, fold
// the class sums and log-likelihood into acc[:J+1], then add every term's
// BlockAccumulateStats over its class's weights into acc[J+1:] at the
// offsets offs. It returns the row-major weights, the per-row
// log-evidence and the MAP classes.
func unfusedBlockStep(classes []*Class, kerns [][]model.Kernel, cols *dataset.Columns, lo, hi int, acc []float64, offs []int) (wts, z []float64, best []int) {
	j := len(classes)
	m := hi - lo
	var s model.Scratch
	lp := make([][]float64, j)
	for cj, cl := range classes {
		v := make([]float64, m)
		for r := range v {
			v[r] = cl.LogPi
		}
		for _, k := range kerns[cj] {
			k.BlockLogProb(cols, lo, hi, v, &s)
		}
		lp[cj] = v
	}
	wts = make([]float64, m*j)
	z = make([]float64, m)
	best = make([]int, m)
	rowMajorNormalize(lp, m, wts, acc[:j+1], z, best)
	buf := acc[j+1:]
	wcol := make([]float64, m)
	ti := 0
	for cj := range classes {
		for r := range wcol {
			wcol[r] = wts[r*j+cj]
		}
		for _, k := range kerns[cj] {
			k.BlockAccumulateStats(cols, wcol, lo, hi, buf[offs[ti]:offs[ti+1]], &s)
			ti++
		}
	}
	return wts, z, best
}

// sameUpToNaN compares bitwise, except that a NaN matches any NaN (see
// sameSums).
func sameUpToNaN(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v [%#x] != %v [%#x]", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// sweepScenario builds a dataset and spec from a term string, one letter
// per block in term order: N a normal term over a column without missing
// values, n one over a column with missing values, M a multinomial, L a
// log-normal and G a two-column multi-normal (one column with missing
// values). Every 11th row puts 1e200 in the first column, and every 37th
// in every real column, so the rows score −Inf, NaN or only −Inf under
// the class parameters sweepParams sets.
func sweepScenario(t *testing.T, terms string, n int) (*dataset.Dataset, model.Spec) {
	t.Helper()
	var attrs []dataset.Attribute
	var spec model.Spec
	var missing []bool
	col := func(typ dataset.AttrType, miss bool) int {
		a := dataset.Attribute{Name: fmt.Sprintf("a%d", len(attrs)), Type: typ}
		if typ == dataset.Discrete {
			a.Levels = []string{"x", "y", "z"}
		}
		attrs = append(attrs, a)
		missing = append(missing, miss)
		return len(attrs) - 1
	}
	for _, c := range terms {
		switch c {
		case 'N', 'n':
			spec.Blocks = append(spec.Blocks, model.BlockSpec{Kind: model.SingleNormal, Attrs: []int{col(dataset.Real, c == 'n')}})
		case 'M':
			spec.Blocks = append(spec.Blocks, model.BlockSpec{Kind: model.SingleMultinomial, Attrs: []int{col(dataset.Discrete, true)}})
		case 'L':
			spec.Blocks = append(spec.Blocks, model.BlockSpec{Kind: model.LogNormal, Attrs: []int{col(dataset.Real, true)}})
		case 'G':
			a, b := col(dataset.Real, false), col(dataset.Real, true)
			spec.Blocks = append(spec.Blocks, model.BlockSpec{Kind: model.MultiNormal, Attrs: []int{a, b}})
		default:
			t.Fatalf("unknown term letter %q", c)
		}
	}
	ds, err := dataset.New(terms, attrs)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(uint64(len(terms)) * 977)
	row := make([]float64, len(attrs))
	for i := 0; i < n; i++ {
		for k, a := range attrs {
			switch {
			case missing[k] && r.Intn(5) == 0:
				row[k] = dataset.Missing
			case a.Type == dataset.Discrete:
				row[k] = float64(r.Intn(3))
			default:
				row[k] = math.Exp(2*r.Float64()) + float64(k)
				if i%37 == 5 || (k == 0 && i%11 == 3) {
					row[k] = 1e200
				}
			}
		}
		if err := ds.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return ds, spec
}

// sweepParams sets random log π_j and normal and multinomial parameters
// with widely spread scales, so that class gaps exceed the vector exp's
// gate. Class 1's first normal term has σ = +Inf (−Inf everywhere, NaN
// where its column overflows) and class 2's sits at 1e200 (−Inf except
// there), so J ≥ 3 rows mix −Inf, NaN and finite classes.
func sweepParams(t *testing.T, cls *Classification, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	total := 0.0
	u := make([]float64, len(cls.Classes))
	for cj := range u {
		u[cj] = 0.05 + r.Float64()
		total += u[cj]
	}
	for cj, cl := range cls.Classes {
		cl.LogPi = math.Log(u[cj] / total)
		firstNormal := true
		for _, term := range cl.Terms {
			var p []float64
			switch term.Kind() {
			case model.SingleNormal:
				p = []float64{5 * r.Float64(), math.Pow(10, 4*r.Float64()-2)}
				if firstNormal && cj == 1 {
					p = []float64{1, math.Inf(1)}
				} else if firstNormal && cj == 2 {
					p = []float64{1e200, 1e150}
				}
				firstNormal = false
			case model.SingleMultinomial:
				a, b := 0.05+r.Float64(), 0.05+r.Float64()
				p = []float64{a / (a + b + 1), b / (a + b + 1), 1 / (a + b + 1)}
			default:
				continue
			}
			if err := term.SetParams(p); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// termOffsets returns the (class, term) statistics offsets of an
// accumulator laid out as the fused pass lays it out, and its length.
func termOffsets(classes []*Class) ([]int, int) {
	var offs []int
	total := 0
	for _, cl := range classes {
		for _, term := range cl.Terms {
			offs = append(offs, total)
			total += term.StatsSize()
		}
	}
	return append(offs, total), total
}

// sweepBlock is one block [lo, lo+m) of a scenario's rows.
type sweepBlock struct{ lo, m int }

// sweepBlocks covers block lengths around the 4-lane quads and the full
// block, at offsets whose single rows are an ordinary row, a row with an
// overflowing first column (3) and a row overflowing everywhere (5).
func sweepBlocks() []sweepBlock {
	var bl []sweepBlock
	for _, m := range []int{1, 3, 4, 5, 255, 256} {
		for _, lo := range []int{0, 3, 5, 340} {
			bl = append(bl, sweepBlock{lo, m})
		}
	}
	return bl
}

// sweepResult is what the block step leaves for one block: the engine's
// accumulator, and the Predictor's memberships, MAP classes, row
// log-evidence and log-likelihood.
type sweepResult struct {
	acc, mem, z []float64
	best        []int
	ll          float64
}

// runSweeps runs the engine's and the Predictor's block step over one
// block with the scratch bs.
func runSweeps(bs *blockScratch, classes []*Class, ks *kernelSet, cols *dataset.Columns, b sweepBlock, acc0 []float64, offs []int) sweepResult {
	j := len(classes)
	lo, hi := b.lo, b.lo+b.m
	res := sweepResult{
		acc:  append([]float64(nil), acc0...),
		mem:  make([]float64, b.m*j),
		best: make([]int, b.m),
		ll:   acc0[j],
	}
	bs.emBlock(classes, ks.k, cols, lo, hi, res.acc, offs)
	v := bs.score(classes, ks.k, cols, lo, hi)
	bs.norm.expSum(v, b.m, &res.ll)
	bs.norm.scaleArgmax(v, b.m, res.mem, res.best)
	res.z = append([]float64(nil), bs.norm.z[:b.m]...)
	return res
}

// TestSweepsMatchUnfusedBlockStep: the three sweeps reproduce the unfused
// composition bitwise — class sums, log-likelihood and every term's
// statistics through the engine's step; memberships, MAP classes,
// log-evidence and log-likelihood through the Predictor's — for normal
// runs of 1 to 6 terms (split into pieces of three), runs after and
// before other term kinds, masked normal columns inside a run, rows
// scoring −Inf, NaN and −Inf everywhere, J ∈ {1, …, 8, 64} and block
// lengths 1 to 256. Sweep 3 takes model.Lanes classes at a time, so J
// from 4 to 7 puts 0 to 3 classes after a group. "nnnM" is
// ProteinMixture's shape: a masked run of three that starts its class
// without folding the maximum, then a term that reads the weights the
// group stores; "nnn" folds the maximum in the run and stores nothing,
// "nNnM" mixes masked and unmasked columns in one run, and "nnnnM" adds a
// one-term masked run that continues its class. The same blocks then run
// on four goroutines at once, each with its own scratch and all sharing
// one kernel set, and must repeat the results.
func TestSweepsMatchUnfusedBlockStep(t *testing.T) {
	scenarios := []string{"N", "NN", "NNN", "NNNN", "NNNNN", "NNNNNNnN", "MNNnNLGNN", "NNNM", "nnM", "NNM", "nnnM", "nnn", "nNnM", "nnnnM"}
	for _, terms := range scenarios {
		ds, spec := sweepScenario(t, terms, 600)
		cols := ds.All().Columns()
		pr := model.NewPriors(ds, ds.Summarize())
		for _, j := range []int{1, 2, 3, 4, 5, 6, 7, 8, 64} {
			t.Run(fmt.Sprintf("%s/J%d", terms, j), func(t *testing.T) {
				cls, err := NewClassification(ds, spec, pr, j)
				if err != nil {
					t.Fatal(err)
				}
				sweepParams(t, cls, uint64(j))
				var ks kernelSet
				ks.prepare(cls.Classes)
				offs, total := termOffsets(cls.Classes)
				r := rng.New(uint64(j) + 5)
				blocks := sweepBlocks()
				acc0 := make([][]float64, len(blocks))
				want := make([]sweepResult, len(blocks))
				var bs blockScratch
				bs.grow(j)
				for bi, b := range blocks {
					acc0[bi] = make([]float64, j+1+total)
					for i := range acc0[bi] {
						acc0[bi][i] = 100 * r.Float64()
					}
					oracle := sweepResult{acc: append([]float64(nil), acc0[bi]...)}
					oracle.mem, oracle.z, oracle.best = unfusedBlockStep(cls.Classes, ks.k, cols, b.lo, b.lo+b.m, oracle.acc, offs)
					oracle.ll = oracle.acc[j]
					got := runSweeps(&bs, cls.Classes, &ks, cols, b, acc0[bi], offs)
					what := fmt.Sprintf("lo=%d m=%d", b.lo, b.m)
					sameUpToNaN(t, what+" accumulator", got.acc, oracle.acc)
					sameUpToNaN(t, what+" memberships", got.mem, oracle.mem)
					sameUpToNaN(t, what+" log-evidence", got.z, oracle.z)
					sameUpToNaN(t, what+" log-likelihood", []float64{got.ll}, []float64{oracle.ll})
					for row := range got.best {
						if got.best[row] != oracle.best[row] {
							t.Fatalf("%s: row %d MAP %d, oracle %d", what, row, got.best[row], oracle.best[row])
						}
					}
					want[bi] = got
				}
				var wg sync.WaitGroup
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						var bs blockScratch
						bs.grow(j)
						for bi, b := range blocks {
							got := runSweeps(&bs, cls.Classes, &ks, cols, b, acc0[bi], offs)
							for i := range got.acc {
								if math.Float64bits(got.acc[i]) != math.Float64bits(want[bi].acc[i]) && !(math.IsNaN(got.acc[i]) && math.IsNaN(want[bi].acc[i])) {
									t.Errorf("concurrent block %d: accumulator %d differs", bi, i)
									return
								}
							}
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}
