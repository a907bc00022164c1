#include "textflag.h"

// Four-lane exp-and-sum: v = exp(v - shift), sum += v, with the exp
// computed by the arithmetic of the FMA branch of the Go runtime's amd64
// math.Exp (src/math/exp_amd64.s): the same constants, the same range
// reduction, the same fused and unfused steps in the same order, so every
// lane rounds exactly as a scalar math.Exp call does. The subtraction and
// the add are the single correctly rounded operations of the scalar loop.
// Only quads whose shifted lanes all lie in [-708, 708] are evaluated
// here; there the scaled exponent stays in [-1021, 1021] and the scalar
// code never reaches its subnormal or overflow branches.

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
// instruction: each constant is broadcast from the first lane of its QUAD,
// the gate's comparison sets a K mask that must read 0xff, and k is
// converted through the low half of a ZMM register. Every instruction is
// AVX-512F; VPANDQ takes the place of VANDPD, which needs DQ on ZMM.
TEXT ·expShiftSumOcts(SB), NOSPLIT, $0-80
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	MOVQ shift_base+24(FP), DI
	MOVQ sum_base+48(FP), R8
	SHRQ $3, CX
	XORQ AX, AX

octLoop:
	TESTQ   CX, CX
	JZ      octDone
	VMOVUPD (SI)(AX*8), Z0
	VSUBPD  (DI)(AX*8), Z0, Z0

	// Gate: every |x| <= 708, ordered (a NaN lane fails).
	VPANDQ.BCST expAbs<>(SB), Z0, Z1
	VCMPPD.BCST $0x12, expGate<>(SB), Z1, K1
	KMOVW       K1, DX
	CMPL        DX, $0xff
	JNE         octDone

	// k = round(x·log2 e) under the current rounding mode.
	VMULPD.BCST expLog2e<>(SB), Z0, Z1
	VCVTPD2DQ   Z1, Y2
	VCVTDQ2PD   Y2, Z1

	// r = (x − k·ln2U − k·ln2L)/16, both subtractions fused.
	VFNMADD231PD.BCST expLn2U<>(SB), Z1, Z0
	VFNMADD231PD.BCST expLn2L<>(SB), Z1, Z0
	VMULPD.BCST       expSixteenth<>(SB), Z0, Z0

	// Taylor polynomial by fused Horner steps.
	VBROADCASTSD     expC8<>(SB), Z1
	VFMADD213PD.BCST expC7<>(SB), Z0, Z1
	VFMADD213PD.BCST expC6<>(SB), Z0, Z1
	VFMADD213PD.BCST expC5<>(SB), Z0, Z1
	VFMADD213PD.BCST expC4<>(SB), Z0, Z1
	VFMADD213PD.BCST expC3<>(SB), Z0, Z1
	VFMADD213PD.BCST expC0<>(SB), Z0, Z1
	VFMADD213PD.BCST expOne<>(SB), Z0, Z1
	VMULPD           Z1, Z0, Z0

	// Undo the /16 by squaring four times, the last step fused with the
	// final +1.
	VADDPD.BCST      expTwo<>(SB), Z0, Z1
	VMULPD           Z1, Z0, Z0
	VADDPD.BCST      expTwo<>(SB), Z0, Z1
	VMULPD           Z1, Z0, Z0
	VADDPD.BCST      expTwo<>(SB), Z0, Z1
	VMULPD           Z1, Z0, Z0
	VADDPD.BCST      expTwo<>(SB), Z0, Z1
	VFMADD213PD.BCST expOne<>(SB), Z1, Z0

	// Multiply by 2^k, built from the biased exponent bits.
	VPMOVSXDQ   Y2, Z3
	VPADDQ.BCST expBias<>(SB), Z3, Z3
	VPSLLQ      $52, Z3, Z3
	VMULPD      Z3, Z0, Z0

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
