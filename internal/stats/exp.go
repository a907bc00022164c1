package stats

import "math"

// ExpShiftSum is the exp-and-sum sweep of a softmax: for every i < len(v)
// it sets v[i] = math.Exp(v[i] − shift[i]), bit for bit, and adds that
// value into sum[i]. shift and sum must be at least as long as v.
//
// On amd64 with AVX2 and FMA it evaluates four lanes at once with the
// arithmetic of the FMA branch of the Go runtime's own amd64 math.Exp: the
// same range reduction, the same fused polynomial steps in the same order,
// the same rounding. The subtraction and the add are single correctly
// rounded operations, as in scalar code. It vectorizes only groups whose
// shifted lanes all lie in [−expGate, expGate], where that branch can
// reach neither its subnormal nor its overflow code, and only after an
// init-time self-check has shown the vector path reproduces the scalar
// loop on this machine. With AVX-512F as well, and a self-check of its
// own passed, the same instructions run eight lanes at once first: an oct
// that fails the gate falls to the quads, which do its passing half, and
// the scalar loop takes each failing quad, the tail, and everything on
// every other platform. math.Exp switches to its non-FMA branch when the
// runtime turns FMA off (for example GODEBUG=cpu.fma=off), and the
// self-checks then disable both vector stages.
func ExpShiftSum(v, shift, sum []float64) {
	shift, sum = shift[:len(v)], sum[:len(v)]
	i := 0
	for fastExp && len(v)-i >= 4 {
		end := len(v)
		if fastOcts {
			i += expShiftSumOcts(v[i:], shift[i:], sum[i:])
			// The quads take what is left of the oct at i.
			end = min(end, i+8)
		}
		i += expShiftSumQuads(v[i:end], shift[i:end], sum[i:end])
		if end-i >= 4 {
			// v[i:i+4] has a shifted lane outside the gate (or NaN).
			expShiftSumScalar(v[i:i+4], shift[i:i+4], sum[i:i+4])
			i += 4
		}
	}
	expShiftSumScalar(v[i:], shift[i:], sum[i:])
}

// expShiftSumScalar is the portable loop of ExpShiftSum.
func expShiftSumScalar(v, shift, sum []float64) {
	shift, sum = shift[:len(v)], sum[:len(v)]
	for i, x := range v {
		e := math.Exp(x - shift[i])
		v[i] = e
		sum[i] += e
	}
}

// expGate bounds the inputs the vector path accepts: for |x| <= 708 the
// scaled exponent k = round(x·log2 e) stays within [−1021, 1021], so the
// result is a normal float64 and math.Exp never leaves its main path.
const expGate = 708

// expProbe returns the fixed probe vector of the init-time self-check:
// values spread over the whole gate plus a dense run near zero, where the
// FMA and non-FMA branches of math.Exp disagree on several percent of
// inputs.
func expProbe() []float64 {
	const n = 512
	p := make([]float64, n)
	const phi = 0.6180339887498949
	f := 0.0
	for i := range p {
		f += phi
		f -= math.Floor(f)
		if i%2 == 0 {
			p[i] = (2*f - 1) * expGate
		} else {
			p[i] = (2*f - 1) * 4
		}
	}
	return p
}

// expSelfCheck reports whether kernel, a vector stage of ExpShiftSum,
// reproduces expShiftSumScalar bit for bit on the probe vector. Every shift is nonzero — dyadic, so the shifted
// probe keeps the probe's values near the gate edges — and every sum
// starts nonzero, so a kernel that drops either operand fails.
func expSelfCheck(kernel func(v, shift, sum []float64) int) bool {
	p := expProbe()
	v := make([]float64, len(p))
	shift := make([]float64, len(p))
	sum := make([]float64, len(p))
	for i, x := range p {
		shift[i] = float64(i%7) - 2.75
		v[i] = x + shift[i]
		sum[i] = float64(i%5) + 0.5
	}
	wantV := append([]float64(nil), v...)
	wantSum := append([]float64(nil), sum...)
	expShiftSumScalar(wantV, shift, wantSum)
	if kernel(v, shift, sum) != len(v) {
		return false
	}
	for i := range v {
		if math.Float64bits(v[i]) != math.Float64bits(wantV[i]) ||
			math.Float64bits(sum[i]) != math.Float64bits(wantSum[i]) {
			return false
		}
	}
	return true
}
