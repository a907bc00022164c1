package autoclass

import (
	"math"

	"repro/internal/stats"
)

// The blocked E+M step: three sweeps per class over one KernelBlockRows
// block, shared by every blocked path — the engine's fused pass (and so
// every cycle) and, for its first two sweeps, the Predictor.
//
// Each class owns one contiguous block vector v. The step walks it three
// times, each time end to end with per-row running state:
//
//  1. Score and max (blockScratch.score): v = log π_j plus every term's
//     log-likelihood, in term order, with the row maximum folded in the
//     same loop. Consecutive single_normal_cn terms are evaluated
//     together, up to three per loop, by model.NormalRun; a masked run
//     (one of its columns has a missing value) skips each term's missing
//     rows. On amd64 an unmasked pair that starts the class and a run of
//     three that starts it run four rows per AVX register, and the pair
//     eight rows per ZMM register where the CPU has AVX-512F. Every other
//     term adds its own kernel's BlockLogProb, and a class whose last
//     term is not in a run folds the maximum in a pass of its own
//     (model.FoldMax, four rows per register on amd64).
//  2. Exp and sum (normScratch.expSum): v = exp(v − max), added into the
//     row sums, by stats.ExpShiftSum: on amd64 eight lanes per ZMM
//     register with AVX-512F, else four per YMM register with AVX2 and
//     FMA. A per-row step then sets the log-evidence z = max + log(sum)
//     and the reciprocal 1/sum: with AVX-512F, stats.LogSumRecip takes
//     eight rows per ZMM register for every oct whose rows are all live
//     and finite, and a Go loop takes the oct it stops at (dead rows
//     included), the tail, and every row on other CPUs.
//  3. Scale, fold and statistics (blockScratch.foldClasses): w =
//     v·(1/sum), summed into the class weight W_j, with the first three
//     normal terms' Σw·x, Σw·x² and Σw accumulated in the same loop
//     (model.NormalRun again). Other terms read w, stored back into v,
//     through BlockAccumulateStats. Four consecutive classes whose runs
//     hold the same columns fold together (model.FoldLanes), one class
//     per AVX lane on amd64 for unmasked runs of two that store nothing
//     and for runs of three, whose kernel stores each class's weights
//     class-major before its 4×4 transpose when another term reads them.
//     The Predictor instead scales into its row-major memberships and
//     takes each row's MAP class (normScratch.scaleArgmax).
//
// Every float64 is the one the unfused composition — fill, per-term
// BlockLogProb, row-major softmax, fold, per-term BlockAccumulateStats —
// produces, because each quantity sees the same operations in the same
// order:
//
//   - v adds the terms in term order, each as the kernel's expression
//     (c − d·d·inv2 for a normal term, which model.NormalRun evaluates
//     next to the kernel that defines it), so a run split into pieces of
//     at most three terms adds exactly what separate kernels add; a
//     masked term leaves s as it was where its x is missing, as its
//     kernel does, and the vector sweep 1 keeps the old s there with
//     VBLENDVPD on VCMPPD's ordered mask, bit for bit, −0 included;
//   - the row maximum starts at −Inf and takes strictly greater values,
//     classes in ascending order; the vector kernels take it with
//     VMAXPD(s, mx), which returns s only when s > mx and mx on a tie
//     (+0 and −0 included), on s ≤ mx and on NaN: the strict > itself;
//   - each exponential is math.Exp(v − max) bit for bit, and the row sum
//     adds the exponentials in ascending class order;
//   - the log-evidence is max + log(sum), with log the math.Log of the
//     Go runtime (the eight-lane kernel replays its amd64 operations, none
//     fused), and every weight is v·(1/sum), rounded before it is added
//     anywhere (the float64 conversion forbids fusing the multiply into a
//     following add);
//   - W_j adds the weights in ascending row order, starting from the
//     running class sum, and the log-likelihood adds every row's
//     log-evidence in ascending row order; the vector sweep 3 gives each
//     class its own lane, so every lane still adds its class's rows in
//     ascending order;
//   - a normal term's statistics accumulate w·x, (w·x)·x and w in
//     ascending row order from +0, as its BlockAccumulateStats does — in
//     an unmasked run the Σw of every term is the same sum, so it is kept
//     once, and each masked term keeps its own over its known rows; the
//     vector sweep 3 ANDs a missing row's x and w to +0, and adding +0 is
//     exact because a round-to-nearest sum that starts at +0 never holds
//     −0;
//   - a row scoring −Inf in every class ("dead") gets the uniform weight
//     1/J and log-evidence −Inf (it adds no evidence): the per-row step
//     sets its class values to 1 and its reciprocal to 1/J, so sweep 3
//     computes 1·(1/J).
//
// sweeps_test.go keeps the unfused composition as the oracle and checks
// this bitwise over normal runs of 1 to 6 terms, mixed term kinds, masked
// runs (ProteinMixture's three reals and a multinomial among them), −Inf,
// NaN and dead rows, and J from 1 to 8 and 64; normalize_test.go checks
// sweeps 2 and 3 against the row-major softmax loop they replaced. NaN
// class sums match as NaN only: Go leaves NaN payloads unspecified.

// normScratch is the normalizer's per-row state for one block.
type normScratch struct {
	max [KernelBlockRows]float64 // row maxima; the Predictor's best weights
	inv [KernelBlockRows]float64 // row sums, then their reciprocals
	z   [KernelBlockRows]float64 // per-row log-evidence
}

// expSum is sweep 2 and the per-row step over the block's m rows: with the
// row maxima in ns.max, it rewrites each class vector v[cj][:m] into
// exp(v − max), leaves each row's log-evidence in ns.z and the reciprocal
// of its sum in ns.inv, and adds the log-evidence of every row that has
// any into *ll. A dead row's class values become 1 and its reciprocal 1/J.
func (ns *normScratch) expSum(v [][]float64, m int, ll *float64) {
	mx := ns.max[:m]
	sum := ns.inv[:m]
	for r := range sum {
		sum[r] = 0
	}
	for _, x := range v {
		stats.ExpShiftSum(x[:m], mx, sum)
	}
	z := ns.z[:m]
	l := *ll
	dead := false
	for r := 0; r < m; {
		end := m
		if stats.LogSumRecipEnabled() {
			// The kernel takes whole octs of live rows, every z it sets
			// finite; the loop below takes the next oct (one holding a
			// dead, NaN or +Inf row) or the tail.
			n := stats.LogSumRecip(mx[r:], sum[r:], z[r:])
			for _, x := range z[r : r+n] {
				l += x
			}
			r += n
			end = min(m, r+8)
		}
		for ; r < end; r++ {
			if math.IsInf(mx[r], -1) {
				z[r] = math.Inf(-1)
				dead = true
				continue
			}
			s := sum[r]
			z[r] = mx[r] + math.Log(s)
			sum[r] = 1 / s
			if !math.IsInf(z[r], -1) {
				l += z[r]
			}
		}
	}
	*ll = l
	if dead {
		u := 1 / float64(len(v))
		for r := range z {
			if math.IsInf(mx[r], -1) {
				sum[r] = u
				for _, x := range v {
					x[r] = 1
				}
			}
		}
	}
}

// scaleArgmax is the Predictor's sweep 3: it writes each row's weights
// v·(1/sum) into the row-major memberships mem (J per row) and its first
// class of maximum weight into best.
func (ns *normScratch) scaleArgmax(v [][]float64, m int, mem []float64, best []int) {
	j := len(v)
	inv := ns.inv[:m]
	bv := ns.max[:m]
	best = best[:m]
	for r, x := range v[0][:m] {
		w := x * inv[r]
		mem[r*j] = w
		bv[r] = w
		best[r] = 0
	}
	for cj := 1; cj < j; cj++ {
		for r, x := range v[cj][:m] {
			w := x * inv[r]
			mem[r*j+cj] = w
			if w > bv[r] {
				bv[r] = w
				best[r] = cj
			}
		}
	}
}
