package stats

// fastExp enables the 4-wide path of ExpShiftSum: the CPU and OS support
// AVX2 and FMA, and the vector path reproduces the scalar loop on the
// probe.
var fastExp = HasAVX2FMA() && expSelfCheck(expShiftSumQuads)

// fastOcts enables the 8-wide stage of ExpShiftSum in front of the 4-wide
// one: the CPU and OS also support AVX-512F, and the oct kernel reproduces
// the scalar loop on the probe too.
var fastOcts = fastExp && HasAVX512() && expSelfCheck(expShiftSumOcts)

// fastLogOcts enables the 8-wide kernel of LogSumRecip: the CPU and OS
// support AVX-512F, and the kernel reproduces math.Log and the reciprocal
// on the probe. math.Log has no FMA branch, so this does not depend on
// fastExp.
var fastLogOcts = HasAVX512() && logSelfCheck(logSumRecipOcts)

// expShiftSumQuads runs ExpShiftSum with AVX2 and FMA, four lanes at a
// time, from the start of v up to the first quad with a shifted lane
// outside [−expGate, expGate] (or NaN). It returns the number of elements
// done, a multiple of 4; elements from there on are untouched. shift and
// sum must be at least as long as v.
//
//go:noescape
func expShiftSumQuads(v, shift, sum []float64) int

// expShiftSumOcts is expShiftSumQuads with AVX-512F, eight lanes at a
// time: it stops at the first oct with a shifted lane outside the gate and
// returns a multiple of 8.
//
//go:noescape
func expShiftSumOcts(v, shift, sum []float64) int

// logSumRecipOcts runs LogSumRecip with AVX-512F, eight rows at a time,
// from the start of sum up to the first oct that fails the gate. It
// returns the number of rows done, a multiple of 8; rows from there on are
// untouched. shift and z must be at least as long as sum.
//
//go:noescape
func logSumRecipOcts(shift, sum, z []float64) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// cpuAVX2FMA and cpuAVX512 hold the answers of probeCPU.
var cpuAVX2FMA, cpuAVX512 = probeCPU()

// HasAVX2FMA reports CPU support for AVX2 and FMA with the YMM register
// state enabled by the OS. It and HasAVX512 read the one CPU probe of the
// repository: the vector kernels of package model gate on them too.
func HasAVX2FMA() bool { return cpuAVX2FMA }

// HasAVX512 reports HasAVX2FMA plus CPU support for AVX-512F with the
// opmask and ZMM register state enabled by the OS.
func HasAVX512() bool { return cpuAVX512 }

// probeCPU is the CPU probe: whether AVX2 and FMA, and whether AVX-512F on
// top of them, may run.
func probeCPU() (avx2fma, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false, false
	}
	// XCR0 bits 1 and 2: the OS saves SSE and AVX state; bits 5, 6 and 7:
	// also the opmask registers, the upper halves of Z0…Z15 and Z16…Z31.
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 {
		return false, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const (
		avx2    = 1 << 5
		avx512f = 1 << 16
	)
	if ebx7&avx2 == 0 {
		return false, false
	}
	return true, ebx7&avx512f != 0 && xcr0&0xE6 == 0xE6
}
