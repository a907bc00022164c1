package autoclass

import (
	"math"

	"repro/internal/stats"
)

// The class-major block normalizer: the E-step's per-row softmax, shared by
// every blocked path — the engine's fused pass, the StreamTrainer and the
// Predictor.
//
// The kernels leave one contiguous KernelBlockRows vector of
// log-memberships per class. Normalizing row by row would stride across J
// separate vectors for every row and call math.Exp once per element; the
// normalizer instead walks each class vector end to end with per-row
// running state, and exponentiates whole vectors with stats.ExpInPlace.
//
// Every float64 is the one the row-major loop produces, because each
// per-row quantity sees the same operations in the same order:
//
//   - the row maximum starts at −Inf and takes strictly greater values,
//     classes in ascending order;
//   - each class value has the maximum subtracted and is exponentiated
//     (stats.ExpInPlace is math.Exp bit for bit);
//   - the row sum adds the exponentials in ascending class order, and every
//     exponential is multiplied by 1/sum;
//   - the log-evidence is max + log(sum);
//   - a row scoring −Inf in every class gets the uniform weight 1/J and
//     log-evidence −Inf (it adds no evidence).
//
// normalize_test.go keeps the row-major loop as the oracle and checks this
// bitwise, including all-−Inf rows and NaN log-probabilities (where only
// the payload of a NaN class sum may differ; Go leaves NaN payloads
// unspecified).

// normScratch is the normalizer's per-row state for one block.
type normScratch struct {
	max  [KernelBlockRows]float64
	inv  [KernelBlockRows]float64 // row sums, then their reciprocals
	z    [KernelBlockRows]float64 // per-row log-evidence
	best [KernelBlockRows]int     // per-row MAP class (Predictor only)
}

// normalize rewrites w[cj][:m], class cj's log-memberships of the block's
// m rows, into normalized weights in place, and leaves each row's
// log-evidence in ns.z[:m].
func (ns *normScratch) normalize(w [][]float64, m int) {
	mx := ns.max[:m]
	for r := range mx {
		mx[r] = math.Inf(-1)
	}
	for _, v := range w {
		for r, x := range v[:m] {
			if x > mx[r] {
				mx[r] = x
			}
		}
	}
	sum := ns.inv[:m]
	for r := range sum {
		sum[r] = 0
	}
	for _, v := range w {
		v = v[:m]
		for r := range v {
			v[r] -= mx[r]
		}
		stats.ExpInPlace(v)
		for r, x := range v {
			sum[r] += x
		}
	}
	z := ns.z[:m]
	dead := false
	for r, s := range sum {
		if math.IsInf(mx[r], -1) {
			z[r] = math.Inf(-1)
			dead = true
			continue
		}
		z[r] = mx[r] + math.Log(s)
		sum[r] = 1 / s
	}
	for _, v := range w {
		v = v[:m]
		for r := range v {
			v[r] *= sum[r]
		}
	}
	if dead {
		u := 1 / float64(len(w))
		for r := range z {
			if math.IsInf(mx[r], -1) {
				for _, v := range w {
					v[r] = u
				}
			}
		}
	}
}

// fold adds a normalized block into acc = {w_0 … w_{J−1}, logLik}: each
// class's weights in ascending row order, then the log-evidence of every
// row that has any.
func (ns *normScratch) fold(w [][]float64, m int, acc []float64) {
	for cj, v := range w {
		s := acc[cj]
		for _, x := range v[:m] {
			s += x
		}
		acc[cj] = s
	}
	ll := acc[len(w)]
	for _, z := range ns.z[:m] {
		if !math.IsInf(z, -1) {
			ll += z
		}
	}
	acc[len(w)] = ll
}

// argmax leaves in ns.best[:m] each row's first class of maximum weight.
func (ns *normScratch) argmax(w [][]float64, m int) {
	best := ns.best[:m]
	bv := ns.max[:m]
	copy(bv, w[0][:m])
	for r := range best {
		best[r] = 0
	}
	for cj := 1; cj < len(w); cj++ {
		for r, x := range w[cj][:m] {
			if x > bv[r] {
				bv[r] = x
				best[r] = cj
			}
		}
	}
}
