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
// every other platform. The oct stage keeps two octs in flight; each lane
// still runs the quads' instructions in their order. math.Exp switches to
// its non-FMA branch when the runtime turns FMA off (for example
// GODEBUG=cpu.fma=off), and the self-checks then disable both vector
// stages. LogSumRecip is the per-row step that follows.
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

// LogSumRecip is the per-row step that follows ExpShiftSum in a softmax:
// from the start of sum, for every i it sets z[i] = shift[i] +
// math.Log(sum[i]) and sum[i] = 1/sum[i], bit for bit, eight rows at a
// time, and stops at the first oct of rows with a shift that is not finite
// or a sum outside [1, +Inf) (or NaN). It returns the number of rows done,
// a multiple of 8; rows from there on are untouched. shift and z must be
// at least as long as sum.
//
// Only amd64 with AVX-512F runs it, and only after an init-time
// self-check has shown the kernel reproduces math.Log on this machine
// (LogSumRecipEnabled); everywhere else it does no row and the caller's
// loop takes them all. The kernel runs the operations of the Go runtime's
// amd64 math.Log in their order, none of them fused. math.Log has no
// CPU-dependent branch, so GODEBUG=cpu.fma=off, which turns the exp
// stages off, leaves this one on.
func LogSumRecip(shift, sum, z []float64) int {
	if !fastLogOcts {
		return 0
	}
	return logSumRecipOcts(shift[:len(sum)], sum, z[:len(sum)])
}

// LogSumRecipEnabled reports whether LogSumRecip runs its kernel here; when
// it does not, LogSumRecip always returns 0.
func LogSumRecipEnabled() bool { return fastLogOcts }

// logProbe returns the fixed sums of the init-time self-check of
// LogSumRecip's kernel, all inside its gate: values dense near 1, spread
// over the whole exponent range, every power of two, and mantissas on both
// sides of sqrt(2)/2 and exactly on it, where math.Log's reduction
// branches.
func logProbe() []float64 {
	var p []float64
	const phi = 0.6180339887498949
	f := 0.0
	for i := 0; i < 256; i++ {
		f += phi
		f -= math.Floor(f)
		p = append(p, 1+f*f*f, math.Ldexp(1+f, int(f*1022)))
	}
	h := math.Sqrt2 / 2
	for e := 1; e <= 1023; e++ {
		p = append(p, math.Ldexp(1, e-1),
			math.Ldexp(math.Nextafter(h, 0), e), math.Ldexp(h, e), math.Ldexp(math.Nextafter(h, 1), e))
	}
	return p[:len(p)&^7]
}

// logSelfCheck reports whether kernel, the eight-lane stage of
// LogSumRecip, reproduces shift + math.Log(sum) and 1/sum bit for bit on
// the probe. Every shift is nonzero, so a kernel that drops it fails.
func logSelfCheck(kernel func(shift, sum, z []float64) int) bool {
	sum := logProbe()
	shift := make([]float64, len(sum))
	z := make([]float64, len(sum))
	for i := range shift {
		shift[i] = float64(i%7) - 2.75
	}
	want := append([]float64(nil), sum...)
	if kernel(shift, sum, z) != len(sum) {
		return false
	}
	for i, s := range want {
		if math.Float64bits(z[i]) != math.Float64bits(shift[i]+math.Log(s)) ||
			math.Float64bits(sum[i]) != math.Float64bits(1/s) {
			return false
		}
	}
	return true
}
