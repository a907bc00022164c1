#include "textflag.h"

// Four-lane exp-and-sum: v = exp(v - shift), sum += v, with the exp
// computed by the arithmetic of the FMA branch of the Go runtime's amd64
// math.Exp (src/math/exp_amd64.s): the same constants, the same range
// reduction, the same fused and unfused steps in the same order, so every
// lane rounds exactly as a scalar math.Exp call does. The subtraction and
// the add are the single correctly rounded operations of the scalar loop.
// Only quads whose shifted lanes all lie in [-708, 708] are evaluated
// here; there the scaled exponent stays in [-1021, 1021] and the scalar
// code never reaches its subnormal or overflow branches. The eight-lane
// kernel runs the same instructions per lane with two octs in flight.
// The file ends with the per-row step that follows on eight lanes,
// logSumRecipOcts (the log of math.Log's amd64 code and a reciprocal).

// QUAD places one float64 or int64 constant in all four lanes of a
// 32-byte read-only vector.
#define QUAD(name, v) \
	DATA name<>+0(SB)/8, v; \
	DATA name<>+8(SB)/8, v; \
	DATA name<>+16(SB)/8, v; \
	DATA name<>+24(SB)/8, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

QUAD(expAbs, $0x7fffffffffffffff)
QUAD(expGate, $708.0)
QUAD(expLog2e, $1.4426950408889634073599246810018920)
QUAD(expLn2U, $0.69314718055966295651160180568695068359375)
QUAD(expLn2L, $0.28235290563031577122588448175013436025525412068e-12)
QUAD(expSixteenth, $0.0625)
QUAD(expC0, $0.5)
QUAD(expOne, $1.0)
QUAD(expTwo, $2.0)
QUAD(expC3, $1.6666666666666666667e-1)
QUAD(expC4, $4.1666666666666666667e-2)
QUAD(expC5, $8.3333333333333333333e-3)
QUAD(expC6, $1.3888888888888888889e-3)
QUAD(expC7, $1.9841269841269841270e-4)
QUAD(expC8, $2.4801587301587301587e-5)
QUAD(expBias, $1023)

// func expShiftSumQuads(v, shift, sum []float64) int
TEXT ·expShiftSumQuads(SB), NOSPLIT, $0-80
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	MOVQ shift_base+24(FP), DI
	MOVQ sum_base+48(FP), R8
	SHRQ $2, CX
	XORQ AX, AX

loop:
	TESTQ CX, CX
	JZ    done
	VMOVUPD (SI)(AX*8), Y0
	VSUBPD  (DI)(AX*8), Y0, Y0

	// Gate: every |x| <= 708, ordered (a NaN lane fails).
	VANDPD    expAbs<>(SB), Y0, Y1
	VCMPPD    $0x12, expGate<>(SB), Y1, Y1
	VMOVMSKPD Y1, DX
	CMPL      DX, $15
	JNE       done

	// k = round(x·log2 e) under the current rounding mode, as CVTSD2SL.
	VMULPD     expLog2e<>(SB), Y0, Y1
	VCVTPD2DQY Y1, X2
	VCVTDQ2PD  X2, Y1

	// r = (x − k·ln2U − k·ln2L)/16, both subtractions fused.
	VFNMADD231PD expLn2U<>(SB), Y1, Y0
	VFNMADD231PD expLn2L<>(SB), Y1, Y0
	VMULPD       expSixteenth<>(SB), Y0, Y0

	// Taylor polynomial by fused Horner steps.
	VMOVUPD     expC8<>(SB), Y1
	VFMADD213PD expC7<>(SB), Y0, Y1
	VFMADD213PD expC6<>(SB), Y0, Y1
	VFMADD213PD expC5<>(SB), Y0, Y1
	VFMADD213PD expC4<>(SB), Y0, Y1
	VFMADD213PD expC3<>(SB), Y0, Y1
	VFMADD213PD expC0<>(SB), Y0, Y1
	VFMADD213PD expOne<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0

	// Undo the /16 by squaring four times: y = y·(y+2), the last step
	// fused with the final +1.
	VADDPD      expTwo<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expTwo<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expTwo<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expTwo<>(SB), Y0, Y1
	VFMADD213PD expOne<>(SB), Y1, Y0

	// Multiply by 2^k, built from the biased exponent bits.
	VPMOVSXDQ X2, Y3
	VPADDQ    expBias<>(SB), Y3, Y3
	VPSLLQ    $52, Y3, Y3
	VMULPD    Y3, Y0, Y0

	VMOVUPD Y0, (SI)(AX*8)
	VADDPD  (R8)(AX*8), Y0, Y0
	VMOVUPD Y0, (R8)(AX*8)
	ADDQ    $4, AX
	DECQ    CX
	JMP     loop

done:
	VZEROUPPER
	MOVQ AX, ret+72(FP)
	RET

// func expShiftSumOcts(v, shift, sum []float64) int
//
// The loop of expShiftSumQuads on eight lanes, instruction for
// instruction: each constant is broadcast from the first lane of its QUAD
// once per call into Z16…Z31, the gate's comparison sets a K mask that
// must read 0xff, and k is converted through the low half of a ZMM
// register. Every instruction is AVX-512F; VPANDQ takes the place of
// VANDPD, which needs DQ on ZMM. Two octs run per iteration, their
// instructions interleaved (oct A in Z0…Z3, oct B in Z4…Z7); each lane
// still runs the quads' instructions in their order. When either oct of a
// pair fails the gate, the one-oct loop takes over, so the kernel still
// stops at the first failing oct. VZEROUPPER leaves Z16…Z31 as they are:
// ABI0 treats every vector register as caller-saved, and legacy SSE
// cannot address them.
TEXT ·expShiftSumOcts(SB), NOSPLIT, $0-80
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	MOVQ shift_base+24(FP), DI
	MOVQ sum_base+48(FP), R8
	SHRQ $3, CX
	XORQ AX, AX

	VBROADCASTSD expAbs<>(SB), Z16
	VBROADCASTSD expGate<>(SB), Z17
	VBROADCASTSD expLog2e<>(SB), Z18
	VBROADCASTSD expLn2U<>(SB), Z19
	VBROADCASTSD expLn2L<>(SB), Z20
	VBROADCASTSD expSixteenth<>(SB), Z21
	VBROADCASTSD expC0<>(SB), Z22
	VBROADCASTSD expOne<>(SB), Z23
	VBROADCASTSD expTwo<>(SB), Z24
	VBROADCASTSD expC3<>(SB), Z25
	VBROADCASTSD expC4<>(SB), Z26
	VBROADCASTSD expC5<>(SB), Z27
	VBROADCASTSD expC6<>(SB), Z28
	VBROADCASTSD expC7<>(SB), Z29
	VBROADCASTSD expC8<>(SB), Z30
	VBROADCASTSD expBias<>(SB), Z31

pairLoop:
	CMPQ    CX, $2
	JLT     octLoop
	VMOVUPD (SI)(AX*8), Z0
	VMOVUPD 64(SI)(AX*8), Z4
	VSUBPD  (DI)(AX*8), Z0, Z0
	VSUBPD  64(DI)(AX*8), Z4, Z4

	// Gate: every |x| <= 708 in both octs, ordered (a NaN lane fails).
	VPANDQ Z16, Z0, Z1
	VPANDQ Z16, Z4, Z5
	VCMPPD $0x12, Z17, Z1, K1
	VCMPPD $0x12, Z17, Z5, K2
	KANDW  K1, K2, K1
	KMOVW  K1, DX
	CMPL   DX, $0xff
	JNE    octLoop

	// k = round(x·log2 e) under the current rounding mode.
	VMULPD    Z18, Z0, Z1
	VMULPD    Z18, Z4, Z5
	VCVTPD2DQ Z1, Y2
	VCVTPD2DQ Z5, Y6
	VCVTDQ2PD Y2, Z1
	VCVTDQ2PD Y6, Z5

	// r = (x − k·ln2U − k·ln2L)/16, both subtractions fused.
	VFNMADD231PD Z19, Z1, Z0
	VFNMADD231PD Z19, Z5, Z4
	VFNMADD231PD Z20, Z1, Z0
	VFNMADD231PD Z20, Z5, Z4
	VMULPD       Z21, Z0, Z0
	VMULPD       Z21, Z4, Z4

	// Taylor polynomial by fused Horner steps.
	VMOVAPD     Z30, Z1
	VMOVAPD     Z30, Z5
	VFMADD213PD Z29, Z0, Z1
	VFMADD213PD Z29, Z4, Z5
	VFMADD213PD Z28, Z0, Z1
	VFMADD213PD Z28, Z4, Z5
	VFMADD213PD Z27, Z0, Z1
	VFMADD213PD Z27, Z4, Z5
	VFMADD213PD Z26, Z0, Z1
	VFMADD213PD Z26, Z4, Z5
	VFMADD213PD Z25, Z0, Z1
	VFMADD213PD Z25, Z4, Z5
	VFMADD213PD Z22, Z0, Z1
	VFMADD213PD Z22, Z4, Z5
	VFMADD213PD Z23, Z0, Z1
	VFMADD213PD Z23, Z4, Z5
	VMULPD      Z1, Z0, Z0
	VMULPD      Z5, Z4, Z4

	// Undo the /16 by squaring four times, the last step fused with the
	// final +1.
	VADDPD      Z24, Z0, Z1
	VADDPD      Z24, Z4, Z5
	VMULPD      Z1, Z0, Z0
	VMULPD      Z5, Z4, Z4
	VADDPD      Z24, Z0, Z1
	VADDPD      Z24, Z4, Z5
	VMULPD      Z1, Z0, Z0
	VMULPD      Z5, Z4, Z4
	VADDPD      Z24, Z0, Z1
	VADDPD      Z24, Z4, Z5
	VMULPD      Z1, Z0, Z0
	VMULPD      Z5, Z4, Z4
	VADDPD      Z24, Z0, Z1
	VADDPD      Z24, Z4, Z5
	VFMADD213PD Z23, Z1, Z0
	VFMADD213PD Z23, Z5, Z4

	// Multiply by 2^k, built from the biased exponent bits.
	VPMOVSXDQ Y2, Z3
	VPMOVSXDQ Y6, Z7
	VPADDQ    Z31, Z3, Z3
	VPADDQ    Z31, Z7, Z7
	VPSLLQ    $52, Z3, Z3
	VPSLLQ    $52, Z7, Z7
	VMULPD    Z3, Z0, Z0
	VMULPD    Z7, Z4, Z4

	VMOVUPD Z0, (SI)(AX*8)
	VMOVUPD Z4, 64(SI)(AX*8)
	VADDPD  (R8)(AX*8), Z0, Z0
	VADDPD  64(R8)(AX*8), Z4, Z4
	VMOVUPD Z0, (R8)(AX*8)
	VMOVUPD Z4, 64(R8)(AX*8)
	ADDQ    $16, AX
	SUBQ    $2, CX
	JMP     pairLoop

octLoop:
	TESTQ   CX, CX
	JZ      octDone
	VMOVUPD (SI)(AX*8), Z0
	VSUBPD  (DI)(AX*8), Z0, Z0

	// Gate: every |x| <= 708, ordered (a NaN lane fails).
	VPANDQ Z16, Z0, Z1
	VCMPPD $0x12, Z17, Z1, K1
	KMOVW  K1, DX
	CMPL   DX, $0xff
	JNE    octDone

	// k = round(x·log2 e) under the current rounding mode.
	VMULPD    Z18, Z0, Z1
	VCVTPD2DQ Z1, Y2
	VCVTDQ2PD Y2, Z1

	// r = (x − k·ln2U − k·ln2L)/16, both subtractions fused.
	VFNMADD231PD Z19, Z1, Z0
	VFNMADD231PD Z20, Z1, Z0
	VMULPD       Z21, Z0, Z0

	// Taylor polynomial by fused Horner steps.
	VMOVAPD     Z30, Z1
	VFMADD213PD Z29, Z0, Z1
	VFMADD213PD Z28, Z0, Z1
	VFMADD213PD Z27, Z0, Z1
	VFMADD213PD Z26, Z0, Z1
	VFMADD213PD Z25, Z0, Z1
	VFMADD213PD Z22, Z0, Z1
	VFMADD213PD Z23, Z0, Z1
	VMULPD      Z1, Z0, Z0

	// Undo the /16 by squaring four times, the last step fused with the
	// final +1.
	VADDPD      Z24, Z0, Z1
	VMULPD      Z1, Z0, Z0
	VADDPD      Z24, Z0, Z1
	VMULPD      Z1, Z0, Z0
	VADDPD      Z24, Z0, Z1
	VMULPD      Z1, Z0, Z0
	VADDPD      Z24, Z0, Z1
	VFMADD213PD Z23, Z1, Z0

	// Multiply by 2^k, built from the biased exponent bits.
	VPMOVSXDQ Y2, Z3
	VPADDQ    Z31, Z3, Z3
	VPSLLQ    $52, Z3, Z3
	VMULPD    Z3, Z0, Z0

	VMOVUPD Z0, (SI)(AX*8)
	VADDPD  (R8)(AX*8), Z0, Z0
	VMOVUPD Z0, (R8)(AX*8)
	ADDQ    $8, AX
	DECQ    CX
	JMP     octLoop

octDone:
	VZEROUPPER
	MOVQ AX, ret+72(FP)
	RET

// The per-row step after the exp on eight lanes: z = shift + log(sum) and
// sum = 1/sum, with the log computed by the operations of the Go runtime's
// amd64 math.Log (src/math/log_amd64.s, archLog) in their order: frexp by
// bit masks, the f1 <= sqrt(2)/2 adjustment on CMPSD's predicate 5
// (not-less-than, with sqrt(2)/2 as the first operand), s = f/(2+f) by a
// true division, the two Horner polynomials unfused, and the final
// combination. archLog uses no FMA and every one of its operations is
// correctly rounded, so each lane gives the scalar call's bits. Only octs
// whose shifts are all finite and whose sums all lie in [1, +Inf) are
// evaluated: there archLog takes none of its special cases (zero,
// negative, subnormal, +Inf, NaN).

// SCALAR places one float64 or int64 constant in an 8-byte read-only
// word, broadcast to every lane where it is used.
#define SCALAR(name, v) \
	DATA name<>+0(SB)/8, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $8

SCALAR(logInf, $0x7ff0000000000000)
SCALAR(logMant, $0x000fffffffffffff)
SCALAR(logExpBits, $0x7ff)
SCALAR(logBias, $0x3fe)
SCALAR(logHSqrt2, $7.07106781186547524401e-01)
SCALAR(logLn2Hi, $6.93147180369123816490e-01)
SCALAR(logLn2Lo, $1.90821492927058770002e-10)
SCALAR(logL1, $6.666666666666735130e-01)
SCALAR(logL2, $3.999999999940941908e-01)
SCALAR(logL3, $2.857142874366239149e-01)
SCALAR(logL4, $2.222219843214978396e-01)
SCALAR(logL5, $1.818357216161805012e-01)
SCALAR(logL6, $1.531383769920937332e-01)
SCALAR(logL7, $1.479819860511658591e-01)

// func logSumRecipOcts(shift, sum, z []float64) int
TEXT ·logSumRecipOcts(SB), NOSPLIT, $0-80
	MOVQ shift_base+0(FP), SI
	MOVQ sum_base+24(FP), DI
	MOVQ sum_len+32(FP), CX
	MOVQ z_base+48(FP), R8
	SHRQ $3, CX
	XORQ AX, AX
	VBROADCASTSD expOne<>(SB), Z8
	VBROADCASTSD logHSqrt2<>(SB), Z9

logLoop:
	TESTQ   CX, CX
	JZ      logDone
	VMOVUPD (SI)(AX*8), Z6
	VMOVUPD (DI)(AX*8), Z7

	// Gate: every |shift| < +Inf and every sum in [1, +Inf), ordered (a
	// NaN lane fails).
	VPANDQ.BCST expAbs<>(SB), Z6, Z0
	VCMPPD.BCST $0x11, logInf<>(SB), Z0, K1
	VCMPPD      $0x1d, Z8, Z7, K1, K1
	VCMPPD.BCST $0x11, logInf<>(SB), Z7, K1, K1
	KMOVW       K1, DX
	CMPL        DX, $0xff
	JNE         logDone

	// f1, k = frexp(sum): f1 = mantissa | 0.5, k = exponent − 0x3fe,
	// converted exactly through 32 bits as CVTSL2SD.
	VPANDQ.BCST logMant<>(SB), Z7, Z2
	VPORQ.BCST  expC0<>(SB), Z2, Z2
	VPSRLQ      $52, Z7, Z1
	VPANDQ.BCST logExpBits<>(SB), Z1, Z1
	VPSUBQ.BCST logBias<>(SB), Z1, Z1
	VPMOVQD     Z1, Y1
	VCVTDQ2PD   Y1, Z1

	// if !(sqrt(2)/2 < f1) { k −= 1; f1 *= 2 }, as archLog: a = 1 or 0,
	// k −= a, f1 *= a + 1.
	VCMPPD    $5, Z2, Z9, K2
	VMOVAPD.Z Z8, K2, Z3
	VSUBPD    Z3, Z1, Z1
	VADDPD    Z8, Z3, Z3
	VMULPD    Z3, Z2, Z2

	// f = f1 − 1; s = f/(2 + f).
	VSUBPD      Z8, Z2, Z2
	VADDPD.BCST expTwo<>(SB), Z2, Z0
	VDIVPD      Z0, Z2, Z3

	// s2 = s·s, s4 = s2·s2.
	VMULPD Z3, Z3, Z4
	VMULPD Z4, Z4, Z5

	// t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7))).
	VMULPD.BCST logL7<>(SB), Z5, Z6
	VADDPD.BCST logL5<>(SB), Z6, Z6
	VMULPD      Z5, Z6, Z6
	VADDPD.BCST logL3<>(SB), Z6, Z6
	VMULPD      Z5, Z6, Z6
	VADDPD.BCST logL1<>(SB), Z6, Z6
	VMULPD      Z6, Z4, Z4

	// t2 = s4·(L2 + s4·(L4 + s4·L6)); R = t1 + t2.
	VMULPD.BCST logL6<>(SB), Z5, Z6
	VADDPD.BCST logL4<>(SB), Z6, Z6
	VMULPD      Z5, Z6, Z6
	VADDPD.BCST logL2<>(SB), Z6, Z6
	VMULPD      Z6, Z5, Z5
	VADDPD      Z5, Z4, Z4

	// hfsq = 0.5·f·f.
	VMULPD.BCST expC0<>(SB), Z2, Z0
	VMULPD      Z2, Z0, Z0

	// log = k·Ln2Hi − ((hfsq − (s·(hfsq + R) + k·Ln2Lo)) − f).
	VADDPD      Z0, Z4, Z4
	VMULPD      Z4, Z3, Z3
	VMULPD.BCST logLn2Lo<>(SB), Z1, Z4
	VADDPD      Z4, Z3, Z3
	VSUBPD      Z3, Z0, Z0
	VSUBPD      Z2, Z0, Z0
	VMULPD.BCST logLn2Hi<>(SB), Z1, Z1
	VSUBPD      Z0, Z1, Z1

	// z = shift + log; sum = 1/sum.
	VADDPD  (SI)(AX*8), Z1, Z1
	VMOVUPD Z1, (R8)(AX*8)
	VDIVPD  Z7, Z8, Z7
	VMOVUPD Z7, (DI)(AX*8)
	ADDQ    $8, AX
	DECQ    CX
	JMP     logLoop

logDone:
	VZEROUPPER
	MOVQ AX, ret+72(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
