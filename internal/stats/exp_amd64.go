package stats

// fastExp enables the 4-wide path of ExpShiftSum: the CPU and OS support
// AVX2 and FMA, and the vector path reproduces the scalar loop on the
// probe.
var fastExp = HasAVX2FMA() && expSelfCheck(expShiftSumQuads)

// expShiftSumQuads runs ExpShiftSum with AVX2 and FMA, four lanes at a
// time, from the start of v up to the first quad with a shifted lane
// outside [−expGate, expGate] (or NaN). It returns the number of elements
// done, a multiple of 4; elements from there on are untouched. shift and
// sum must be at least as long as v.
//
//go:noescape
func expShiftSumQuads(v, shift, sum []float64) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// HasAVX2FMA reports CPU support for AVX2 and FMA with the YMM register
// state enabled by the OS. It is the one CPU probe of the repository: the
// vector kernels of package model gate on it too.
func HasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves SSE and AVX state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}
