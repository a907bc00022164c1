package model

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// The vector kernels of NormalRun and FoldMax against their Go loops,
// which stay the portable path and the oracle: Score against score over
// the whole block, FoldLanes against four Fold calls, FoldMax against a
// strict-> loop. Lengths 0–9 cover no quad, one and two quads and every
// tail length; start offsets 0–3 move v, mx, inv and the columns across
// alignments. Score runs lengths 0–17 at offsets 0–7, so its eight-lane
// kernel takes no oct, one, two, and an oct followed by a quad and a tail,
// at every alignment to 64 bytes. The inputs plant NaN, ±Inf, +0/−0 ties and dead rows in v
// and mx, and columns that overflow d·d; the masked variants also plant
// missing values (NaN) in the columns.

// vecPick draws one value of a hostile palette: finite values of spread
// magnitude most often, then NaN, ±Inf, ±0, and other.
func vecPick(r *rng.Source, other float64) float64 {
	switch r.Intn(12) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 0
	case 4:
		return math.Copysign(0, -1)
	case 5:
		return other
	default:
		return (2*r.Float64() - 1) * math.Pow(10, 6*r.Float64()-3)
	}
}

// vecColumn returns a column of n finite values that overflow d·d every
// now and then, as an unmasked column may.
func vecColumn(r *rng.Source, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 10*r.Float64() - 5
		if r.Intn(9) == 0 {
			x[i] = math.Copysign(1e200, x[i])
		}
	}
	return x
}

// vecRun binds a run of len(ks) kernels to the columns xs and the
// statistics slots st (nil when only scoring), masked when the columns may
// hold missing values. Each kernel's term covers the column of its index
// in xs, or attrs[t] when given.
func vecRun(ks []normalKernel, xs [][]float64, st [][]float64, attrs []int, masked bool) NormalRun {
	run := NormalRun{masked: masked}
	for t := range ks {
		k := ks[t]
		a := t
		if attrs != nil {
			a = attrs[t]
		}
		k.t = &normalTerm{attr: a}
		run.k[t] = &k
		run.x[t] = xs[t]
		if st != nil {
			run.st[t] = st[t]
		}
		run.n++
	}
	return run
}

// vecColumns returns n columns of m rows starting off elements into their
// backing arrays. When masked, each column plants missing values (NaN) in
// a pattern of its own: one row (one lane of a quad), a whole quad, every
// row, or about every fifth row.
func vecColumns(r *rng.Source, n, off, m int, masked bool) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		x := vecColumn(r, off+m)[off:]
		if masked && m > 0 {
			switch r.Intn(4) {
			case 0:
				x[r.Intn(m)] = math.NaN()
			case 1:
				quad := 4 * r.Intn((m+3)/4)
				for q := quad; q < min(quad+4, m); q++ {
					x[q] = math.NaN()
				}
			case 2:
				for q := range x {
					x[q] = math.NaN()
				}
			default:
				for q := range x {
					if r.Intn(5) == 0 {
						x[q] = math.NaN()
					}
				}
			}
		}
		xs[i] = x
	}
	return xs
}

// vecKernels returns n kernels: the first ordinary, the second either
// ordinary or the identity c = −0, inv2 = 0, under which a term adds −0
// and s keeps v's value, sign of zero included, wherever d is finite.
func vecKernels(r *rng.Source, n int, identity bool) []normalKernel {
	ks := make([]normalKernel, n)
	for t := range ks {
		ks[t] = normalKernel{mean: 4*r.Float64() - 2, c: -3 * r.Float64(), inv2: 2 * r.Float64()}
		if identity && t == n-1 {
			ks[t] = normalKernel{mean: 0, c: math.Copysign(0, -1), inv2: 0}
		}
	}
	return ks
}

// sameBits fails the test unless got and want agree bit for bit, a NaN
// matching any NaN (Go leaves NaN payloads unspecified).
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v [%#x], Go loop %v [%#x]", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestNormalRunScoreMatchesGoLoop: Score, vector octs and quads plus Go
// tail, leaves v and mx bit for bit as the Go loop does over the whole
// block, for unmasked runs of one to three terms in all four modes — the
// vector kernels take the two-term run that starts its class and folds
// the maximum and the three-term run that starts its class and does not
// fold, the Go loop every other. mx holds NaN, ±Inf, ±0 and the row's own score
// (a tie, ±0 ties included under the identity kernel), so a maximum that
// keeps s on a tie or on NaN fails.
func TestNormalRunScoreMatchesGoLoop(t *testing.T) {
	checkScoreMatchesGoLoop(t, rng.New(15), false)
}

// TestNormalRunScoreMaskedMatchesGoLoop is TestNormalRunScoreMatchesGoLoop
// for masked runs: missing values in one lane, a whole quad, every row or
// about every fifth row of each column must leave s as it was, a −0 s
// included under the identity kernel, so a kernel that adds a masked term
// anyway, or keeps the wrong operand of its blend, fails.
func TestNormalRunScoreMaskedMatchesGoLoop(t *testing.T) {
	checkScoreMatchesGoLoop(t, rng.New(19), true)
}

func checkScoreMatchesGoLoop(t *testing.T, r *rng.Source, masked bool) {
	for n := 1; n <= normalRunMax; n++ {
		for _, identity := range []bool{false, true} {
			for _, first := range []bool{false, true} {
				for _, fold := range []bool{false, true} {
					for m := 0; m <= 17; m++ {
						for off := 0; off <= 7; off++ {
							for rep := 0; rep < 8; rep++ {
								name := fmt.Sprintf("n=%d masked=%v identity=%v first=%v fold=%v m=%d off=%d rep=%d", n, masked, identity, first, fold, m, off, rep)
								ks := vecKernels(r, n, identity)
								run := vecRun(ks, vecColumns(r, n, off, m, masked), nil, nil, masked)
								logPi := vecPick(r, math.Copysign(0, -1))
								v := make([]float64, off+m)[off:]
								for i := range v {
									v[i] = vecPick(r, math.Inf(-1))
								}
								// The rows' own scores, for planted ties.
								s := append([]float64(nil), v...)
								run.score(s, make([]float64, m), 0, logPi, first, false)
								mx := make([]float64, off+m)[off:]
								for i := range mx {
									mx[i] = vecPick(r, s[i])
									if r.Intn(4) == 0 {
										mx[i] = -s[i]
									}
								}
								wantV, wantMx := append([]float64(nil), v...), append([]float64(nil), mx...)
								run.score(wantV, wantMx, 0, logPi, first, fold)
								run.Score(v, mx, logPi, first, fold)
								sameBits(t, name+" v", v, wantV)
								sameBits(t, name+" mx", mx, wantMx)
							}
						}
					}
				}
			}
		}
	}
}

// TestFoldLanesMatchesFold: FoldLanes, vector quads plus Go tails, leaves
// every class sum, statistics slot and class vector bit for bit as four
// Fold calls do, one class after another, for unmasked runs of one to
// three terms that store their weights or not. Every lane starts from its
// own W and slots, and the class values and reciprocals hold NaN, ±Inf, ±0
// and the dead rows' 1.
func TestFoldLanesMatchesFold(t *testing.T) {
	checkFoldLanesMatchesFold(t, rng.New(16), false)
}

// TestFoldLanesMaskedMatchesFold is TestFoldLanesMatchesFold for masked
// runs: each column plants its own missing values, so a kernel that adds
// a missing row, shares one Σw between the terms or does not store the
// weights it was asked to fails.
func TestFoldLanesMaskedMatchesFold(t *testing.T) {
	checkFoldLanesMatchesFold(t, rng.New(20), true)
}

func checkFoldLanesMatchesFold(t *testing.T, r *rng.Source, masked bool) {
	for n := 1; n <= normalRunMax; n++ {
		for _, store := range []bool{false, true} {
			for m := 0; m <= 9; m++ {
				for off := 0; off <= 3; off++ {
					for rep := 0; rep < 8; rep++ {
						name := fmt.Sprintf("n=%d masked=%v store=%v m=%d off=%d rep=%d", n, masked, store, m, off, rep)
						xs := vecColumns(r, n, off, m, masked)
						inv := make([]float64, off+m)[off:]
						for i := range inv {
							inv[i] = vecPick(r, 0.25)
						}
						var runs, oracle [Lanes]NormalRun
						var v, want [Lanes][]float64
						var W, wantW [Lanes]float64
						gotSt, wantSt := make([][]float64, Lanes*n), make([][]float64, Lanes*n)
						for l := range runs {
							v[l] = make([]float64, off+m)[off:]
							for i := range v[l] {
								v[l][i] = vecPick(r, 1)
							}
							want[l] = append([]float64(nil), v[l]...)
							W[l] = 100 * r.Float64()
							wantW[l] = W[l]
							for ti := l * n; ti < (l+1)*n; ti++ {
								gotSt[ti] = []float64{r.Float64(), 10 * r.Float64(), r.Float64()}
								wantSt[ti] = append([]float64(nil), gotSt[ti]...)
							}
							ks := vecKernels(r, n, false)
							runs[l] = vecRun(ks, xs, gotSt[l*n:(l+1)*n], nil, masked)
							oracle[l] = vecRun(ks, xs, wantSt[l*n:(l+1)*n], nil, masked)
						}
						if !FoldLanes(&runs, &v, inv, &W, store) {
							t.Fatalf("%s: FoldLanes refused runs over the same columns", name)
						}
						for l := range oracle {
							wantW[l] = oracle[l].Fold(want[l], inv, wantW[l], store)
						}
						sameBits(t, name+" W", W[:], wantW[:])
						for ti := range wantSt {
							sameBits(t, fmt.Sprintf("%s slot %d", name, ti), gotSt[ti], wantSt[ti])
						}
						for l := range v {
							sameBits(t, name+" v", v[l], want[l])
						}
					}
				}
			}
		}
	}
}

// TestFoldMaxMatchesGoLoop: FoldMax, vector quads plus Go tail, leaves the
// row maxima bit for bit as the strict-> Go loop does, with NaN, ±Inf and
// ±0 ties on both sides, so a maximum that keeps v on a tie or on NaN
// fails.
func TestFoldMaxMatchesGoLoop(t *testing.T) {
	r := rng.New(21)
	for m := 0; m <= 9; m++ {
		for off := 0; off <= 3; off++ {
			for rep := 0; rep < 32; rep++ {
				v := make([]float64, off+m)[off:]
				mx := make([]float64, off+m)[off:]
				for i := range v {
					v[i] = vecPick(r, math.Copysign(0, -1))
					mx[i] = vecPick(r, v[i])
					if r.Intn(4) == 0 {
						mx[i] = -v[i]
					}
				}
				want := append([]float64(nil), mx...)
				for i, x := range v {
					if x > want[i] {
						want[i] = x
					}
				}
				FoldMax(mx, v)
				sameBits(t, fmt.Sprintf("m=%d off=%d rep=%d mx", m, off, rep), mx, want)
			}
		}
	}
}

// TestFoldLanesRefuses: runs over other columns, of other lengths, or
// empty are not folded together, and nothing is written.
func TestFoldLanesRefuses(t *testing.T) {
	r := rng.New(17)
	x := [][]float64{vecColumn(r, 8), vecColumn(r, 8)}
	for _, tc := range []struct {
		name  string
		terms [Lanes]int
		attrs [Lanes][]int
	}{
		{"empty", [Lanes]int{0, 0, 0, 0}, [Lanes][]int{}},
		{"lengths", [Lanes]int{2, 2, 1, 2}, [Lanes][]int{}},
		{"columns", [Lanes]int{2, 2, 2, 2}, [Lanes][]int{nil, nil, nil, {1, 0}}},
	} {
		var runs [Lanes]NormalRun
		var v [Lanes][]float64
		var W [Lanes]float64
		st := []float64{1, 2, 3}
		for l := range runs {
			n := tc.terms[l]
			sts := [][]float64{st, st}
			runs[l] = vecRun(vecKernels(r, n, false), x[:n], sts[:n], tc.attrs[l], false)
			v[l] = make([]float64, 8)
			W[l] = 5
		}
		if FoldLanes(&runs, &v, make([]float64, 8), &W, false) {
			t.Fatalf("%s: FoldLanes folded runs that do not share their columns", tc.name)
		}
		if W != [Lanes]float64{5, 5, 5, 5} || st[0] != 1 || st[1] != 2 || st[2] != 3 {
			t.Fatalf("%s: a refused FoldLanes wrote W %v, slot %v", tc.name, W, st)
		}
	}
}
