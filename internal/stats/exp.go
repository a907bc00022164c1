package stats

import "math"

// ExpInPlace replaces every x[i] with math.Exp(x[i]), bit for bit.
//
// On amd64 with AVX2 and FMA it evaluates four lanes at once with the
// arithmetic of the FMA branch of the Go runtime's own amd64 math.Exp: the
// same range reduction, the same fused polynomial steps in the same order,
// the same rounding. It vectorizes only quads whose lanes all lie in
// [−expGate, expGate], where that branch can reach neither its subnormal
// nor its overflow code, and only after an init-time self-check has shown
// the vector path reproduces math.Exp on this machine. math.Exp switches
// to its non-FMA branch when the runtime turns FMA off (for example
// GODEBUG=cpu.fma=off), and the self-check then disables the vector path.
// Every other quad, the tail, and every other platform call math.Exp.
func ExpInPlace(x []float64) {
	i := 0
	if fastExp {
		for len(x)-i >= 4 {
			i += expQuads(x[i:])
			if len(x)-i < 4 {
				break
			}
			// x[i:i+4] has a lane outside the gate (or NaN).
			expScalar(x[i : i+4])
			i += 4
		}
	}
	expScalar(x[i:])
}

// expScalar is the portable fallback of ExpInPlace.
func expScalar(x []float64) {
	for i, v := range x {
		x[i] = math.Exp(v)
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

// expSelfCheck reports whether quads reproduce math.Exp bit for bit on the
// probe vector.
func expSelfCheck(quads func([]float64) int) bool {
	p := expProbe()
	got := append([]float64(nil), p...)
	if quads(got) != len(got) {
		return false
	}
	for i, v := range p {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(v)) {
			return false
		}
	}
	return true
}
