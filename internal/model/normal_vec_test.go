package model

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// The vector kernels of NormalRun against its Go loops, which stay the
// portable path and the oracle: Score against score over the whole block,
// FoldLanes against four Fold calls. Lengths 0–9 cover no quad, one and
// two quads and every tail length; start offsets 0–3 move v, mx, inv and
// the columns across alignments. The inputs plant NaN, ±Inf, +0/−0 ties
// and dead rows in v and mx, and columns that overflow d·d.

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
// statistics slots st (nil when only scoring). Each kernel's term covers
// the column of its index in xs, or attrs[t] when given.
func vecRun(ks []normalKernel, xs [][]float64, st [][]float64, attrs []int) NormalRun {
	var run NormalRun
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

// TestNormalRunScoreMatchesGoLoop: Score, vector quads plus Go tail,
// leaves v and mx bit for bit as the Go loop does over the whole block,
// for runs of one and two terms in all four modes — the vector kernel
// takes the two-term run that starts its class and folds the maximum,
// the Go loop every other. mx holds NaN, ±Inf,
// ±0 and the row's own score (a tie, ±0 ties included under the identity
// kernel), so a maximum that keeps s on a tie or on NaN fails.
func TestNormalRunScoreMatchesGoLoop(t *testing.T) {
	r := rng.New(15)
	for n := 1; n <= normalRunMax; n++ {
		for _, identity := range []bool{false, true} {
			for _, first := range []bool{false, true} {
				for _, fold := range []bool{false, true} {
					for m := 0; m <= 9; m++ {
						for off := 0; off <= 3; off++ {
							for rep := 0; rep < 8; rep++ {
								name := fmt.Sprintf("n=%d identity=%v first=%v fold=%v m=%d off=%d rep=%d", n, identity, first, fold, m, off, rep)
								ks := vecKernels(r, n, identity)
								xs := make([][]float64, n)
								for i := range xs {
									xs[i] = vecColumn(r, off+m)[off:]
								}
								run := vecRun(ks, xs, nil, nil)
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
// every class sum and statistics slot bit for bit as four Fold calls do,
// one class after another, for runs of one and two terms. Every lane
// starts from its own W and slots, and the class values and reciprocals
// hold NaN, ±Inf, ±0 and the dead rows' 1.
func TestFoldLanesMatchesFold(t *testing.T) {
	r := rng.New(16)
	for n := 1; n <= normalRunMax; n++ {
		for m := 0; m <= 9; m++ {
			for off := 0; off <= 3; off++ {
				for rep := 0; rep < 8; rep++ {
					name := fmt.Sprintf("n=%d m=%d off=%d rep=%d", n, m, off, rep)
					xs := make([][]float64, n)
					for i := range xs {
						xs[i] = vecColumn(r, off+m)[off:]
					}
					inv := make([]float64, off+m)[off:]
					for i := range inv {
						inv[i] = vecPick(r, 0.25)
					}
					var runs, oracle [Lanes]NormalRun
					var v [Lanes][]float64
					var W, wantW [Lanes]float64
					got, want := make([][]float64, Lanes*n), make([][]float64, Lanes*n)
					for l := range runs {
						v[l] = make([]float64, off+m)[off:]
						for i := range v[l] {
							v[l][i] = vecPick(r, 1)
						}
						W[l] = 100 * r.Float64()
						wantW[l] = W[l]
						for ti := l * n; ti < (l+1)*n; ti++ {
							got[ti] = []float64{r.Float64(), 10 * r.Float64(), r.Float64()}
							want[ti] = append([]float64(nil), got[ti]...)
						}
						ks := vecKernels(r, n, false)
						runs[l] = vecRun(ks, xs, got[l*n:(l+1)*n], nil)
						oracle[l] = vecRun(ks, xs, want[l*n:(l+1)*n], nil)
					}
					vIn := v
					for l := range vIn {
						vIn[l] = append([]float64(nil), v[l]...)
					}
					if !FoldLanes(&runs, &v, inv, &W) {
						t.Fatalf("%s: FoldLanes refused runs over the same columns", name)
					}
					for l := range oracle {
						wantW[l] = oracle[l].Fold(vIn[l], inv, wantW[l], false)
					}
					sameBits(t, name+" W", W[:], wantW[:])
					for ti := range want {
						sameBits(t, fmt.Sprintf("%s slot %d", name, ti), got[ti], want[ti])
					}
					for l := range v {
						sameBits(t, name+" v unchanged", v[l], vIn[l])
					}
				}
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
			runs[l] = vecRun(vecKernels(r, n, false), x[:n], sts[:n], tc.attrs[l])
			v[l] = make([]float64, 8)
			W[l] = 5
		}
		if FoldLanes(&runs, &v, make([]float64, 8), &W) {
			t.Fatalf("%s: FoldLanes folded runs that do not share their columns", tc.name)
		}
		if W != [Lanes]float64{5, 5, 5, 5} || st[0] != 1 || st[1] != 2 || st[2] != 3 {
			t.Fatalf("%s: a refused FoldLanes wrote W %v, slot %v", tc.name, W, st)
		}
	}
}
