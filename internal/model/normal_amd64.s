#include "textflag.h"

// The vector kernels of NormalRun, four float64 lanes per AVX register,
// for runs of two normal terms: the runs of the paper's model, the only
// ones a benchmarked workload scores. Each lane performs exactly the
// correctly rounded operations of the Go loop it replaces, in the same
// order, with no fused multiply-add, so every result is the Go loop's bit
// for bit:
//
//   - scoreAVX puts four rows in the lanes of a run that starts its class
//     and folds the row maximum. Each term is d = x − mean, d·d, ·inv2,
//     c − ·, s + ·: VSUBPD, VMULPD, VMULPD, VSUBPD, VADDPD. The row
//     maximum is VMAXPD with s as the first source and mx as the second,
//     which returns s only when s > mx and mx on a tie (+0 and −0
//     included), on s ≤ mx and when either is NaN: exactly the Go loop's
//     strict `s > mx[r]`.
//   - foldLanesAVX puts four classes in the lanes. Each lane scales its
//     own class's values by the shared row reciprocals and adds the rows
//     into its own sums in ascending order, as one class's Go loop does;
//     four rows at a time are turned from class-major to row-major order
//     in registers.

// func scoreAVX(v, mx, x0, x1 *float64, quads int, k *[7]float64)
TEXT ·scoreAVX(SB), NOSPLIT, $0-48
	MOVQ v+0(FP), SI
	MOVQ mx+8(FP), DI
	MOVQ x0+16(FP), R8
	MOVQ x1+24(FP), R9
	MOVQ quads+32(FP), CX
	MOVQ k+40(FP), DX

	VBROADCASTSD 0(DX), Y8   // logPi
	VBROADCASTSD 8(DX), Y9   // mean₀
	VBROADCASTSD 16(DX), Y10 // c₀
	VBROADCASTSD 24(DX), Y11 // inv2₀
	VBROADCASTSD 32(DX), Y12 // mean₁
	VBROADCASTSD 40(DX), Y13 // c₁
	VBROADCASTSD 48(DX), Y14 // inv2₁
	SHLQ         $2, CX
	XORQ         AX, AX

score:
	CMPQ    AX, CX
	JGE     scoreDone
	VMOVUPD (R8)(AX*8), Y1
	VSUBPD  Y9, Y1, Y1
	VMULPD  Y1, Y1, Y1
	VMULPD  Y11, Y1, Y1
	VSUBPD  Y1, Y10, Y1
	VADDPD  Y1, Y8, Y0
	VMOVUPD (R9)(AX*8), Y1
	VSUBPD  Y12, Y1, Y1
	VMULPD  Y1, Y1, Y1
	VMULPD  Y14, Y1, Y1
	VSUBPD  Y1, Y13, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (SI)(AX*8)

	// mx = s > mx ? s : mx (Intel operand order: VMAXPD mx, s, [mx]).
	VMAXPD  (DI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     score

scoreDone:
	VZEROUPPER
	RET

// LANEROWS loads rows r…r+3 of the four class vectors, scales each by the
// row reciprocals, and transposes them so that Y0…Y3 hold rows r, r+1,
// r+2 and r+3 with class l's weight in lane l.
#define LANEROWS \
	VMOVUPD    (R10)(AX*8), Y7 \
	VMOVUPD    (SI)(AX*8), Y0  \
	VMULPD     Y7, Y0, Y0      \
	VMOVUPD    (DI)(AX*8), Y1  \
	VMULPD     Y7, Y1, Y1      \
	VMOVUPD    (R8)(AX*8), Y2  \
	VMULPD     Y7, Y2, Y2      \
	VMOVUPD    (R9)(AX*8), Y3  \
	VMULPD     Y7, Y3, Y3      \
	VUNPCKLPD  Y1, Y0, Y4      \
	VUNPCKHPD  Y1, Y0, Y5      \
	VUNPCKLPD  Y3, Y2, Y6      \
	VUNPCKHPD  Y3, Y2, Y7      \
	VPERM2F128 $0x20, Y6, Y4, Y0 \
	VPERM2F128 $0x20, Y7, Y5, Y1 \
	VPERM2F128 $0x31, Y6, Y4, Y2 \
	VPERM2F128 $0x31, Y7, Y5, Y3

// TERM adds one row's w·x into sx and (w·x)·x into sxx, x broadcast from
// the column at byte offset off past row r.
#define TERM(w, col, off, sx, sxx) \
	VBROADCASTSD off(col)(AX*8), Y14 \
	VMULPD       Y14, w, Y15         \
	VADDPD       Y15, sx, sx         \
	VMULPD       Y14, Y15, Y15       \
	VADDPD       Y15, sxx, sxx

// ROW folds one row (w, at byte offset off past row r) into W, Σw and the
// sums of both terms.
#define ROW(w, off) \
	VADDPD w, Y8, Y8               \
	TERM(w, R11, off, Y10, Y12)    \
	TERM(w, R12, off, Y11, Y13)    \
	VADDPD w, Y9, Y9

// func foldLanesAVX(v0, v1, v2, v3, inv, x0, x1 *float64, quads int, s *laneSums)
TEXT ·foldLanesAVX(SB), NOSPLIT, $0-72
	MOVQ v0+0(FP), SI
	MOVQ v1+8(FP), DI
	MOVQ v2+16(FP), R8
	MOVQ v3+24(FP), R9
	MOVQ inv+32(FP), R10
	MOVQ x0+40(FP), R11
	MOVQ x1+48(FP), R12
	MOVQ quads+56(FP), CX
	MOVQ s+64(FP), DX

	// laneSums: w, sw, sx[0], sx[1], sxx[0], sxx[1], 32 bytes each.
	VMOVUPD 0(DX), Y8
	VMOVUPD 32(DX), Y9
	VMOVUPD 64(DX), Y10
	VMOVUPD 96(DX), Y11
	VMOVUPD 128(DX), Y12
	VMOVUPD 160(DX), Y13
	SHLQ    $2, CX
	XORQ    AX, AX

fold:
	CMPQ AX, CX
	JGE  foldDone
	LANEROWS
	ROW(Y0, 0)
	ROW(Y1, 8)
	ROW(Y2, 16)
	ROW(Y3, 24)
	ADDQ $4, AX
	JMP  fold

foldDone:
	VMOVUPD Y8, 0(DX)
	VMOVUPD Y9, 32(DX)
	VMOVUPD Y10, 64(DX)
	VMOVUPD Y11, 96(DX)
	VMOVUPD Y12, 128(DX)
	VMOVUPD Y13, 160(DX)
	VZEROUPPER
	RET
