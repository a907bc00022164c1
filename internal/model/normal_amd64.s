#include "textflag.h"

// The vector kernels of NormalRun and FoldMax, four float64 lanes per AVX
// register, for the runs a benchmarked workload scores: unmasked runs of
// two normal terms (the paper's model) and runs of three, masked or not
// (ProteinMixture's three reals with missing values). Each lane performs
// exactly the correctly rounded operations of the Go loop it replaces, in
// the same order, with no fused multiply-add, so every result is the Go
// loop's bit for bit:
//
//   - scoreAVX puts four rows in the lanes of a run that starts its class
//     and folds the row maximum. Each term is d = x − mean, d·d, ·inv2,
//     c − ·, s + ·: VSUBPD, VMULPD, VMULPD, VSUBPD, VADDPD. The row
//     maximum is VMAXPD with s as the first source and mx as the second,
//     which returns s only when s > mx and mx on a tie (+0 and −0
//     included), on s ≤ mx and when either is NaN: exactly the Go loop's
//     strict `s > mx[r]`. foldMaxAVX is that maximum alone.
//   - scoreMaskAVX does the same five operations per term for a run of
//     three that starts its class and does not fold. VCMPPD with the
//     ordered predicate marks the lanes whose x is known (not NaN), and
//     VBLENDVPD keeps the old s, bit for bit (−0 included), where it is
//     not: the Go loop's `if x == x`.
//   - foldLanesAVX and foldLanesMaskAVX put four classes in the lanes.
//     Each lane scales its own class's values by the shared row
//     reciprocals and adds the rows into its own sums in ascending order,
//     as one class's Go loop does; four rows at a time are turned from
//     class-major to row-major order in registers, after
//     foldLanesMaskAVX has stored each class's weights back into its
//     vector when asked. foldLanesMaskAVX gives each term its own Σw and
//     ANDs a term's x and w with its known mask, so a missing row adds
//     +0·+0, +0 and +0 to its sums. That is exact: each sum starts the
//     block at +0, and a round-to-nearest sum that starts at +0 never
//     holds −0, so adding +0 leaves it as it was.

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

	// laneSums: w, sx[0…2], sxx[0…2], sw[0…2], 32 bytes each; the
	// shared Σw lives in sw[0].
	VMOVUPD 0(DX), Y8
	VMOVUPD 224(DX), Y9
	VMOVUPD 32(DX), Y10
	VMOVUPD 64(DX), Y11
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
	VMOVUPD Y9, 224(DX)
	VMOVUPD Y10, 32(DX)
	VMOVUPD Y11, 64(DX)
	VMOVUPD Y12, 128(DX)
	VMOVUPD Y13, 160(DX)
	VZEROUPPER
	RET

// MSCORE adds one term of a run of three to the rows r…r+3 of s, with the
// column col and the term's broadcast mean, c and inv2, into out, keeping
// s where x is missing.
#define MSCORE(col, mean, c, inv2, s, out) \
	VMOVUPD   (col)(AX*8), Y1 \
	VSUBPD    mean, Y1, Y2    \
	VMULPD    Y2, Y2, Y2      \
	VMULPD    inv2, Y2, Y2    \
	VSUBPD    Y2, c, Y2       \
	VADDPD    Y2, s, Y2       \
	VCMPPD    $7, Y1, Y1, Y3  \
	VBLENDVPD Y3, Y2, s, out

// func scoreMaskAVX(v, x0, x1, x2 *float64, quads int, k *[10]float64)
TEXT ·scoreMaskAVX(SB), NOSPLIT, $0-48
	MOVQ v+0(FP), SI
	MOVQ x0+8(FP), R8
	MOVQ x1+16(FP), R9
	MOVQ x2+24(FP), R10
	MOVQ quads+32(FP), CX
	MOVQ k+40(FP), DX

	VBROADCASTSD 0(DX), Y6   // logPi
	VBROADCASTSD 8(DX), Y7   // mean₀
	VBROADCASTSD 16(DX), Y8  // c₀
	VBROADCASTSD 24(DX), Y9  // inv2₀
	VBROADCASTSD 32(DX), Y10 // mean₁
	VBROADCASTSD 40(DX), Y11 // c₁
	VBROADCASTSD 48(DX), Y12 // inv2₁
	VBROADCASTSD 56(DX), Y13 // mean₂
	VBROADCASTSD 64(DX), Y14 // c₂
	VBROADCASTSD 72(DX), Y15 // inv2₂
	SHLQ         $2, CX
	XORQ         AX, AX

scoreMask:
	CMPQ    AX, CX
	JGE     scoreMaskDone
	MSCORE(R8, Y7, Y8, Y9, Y6, Y0)
	MSCORE(R9, Y10, Y11, Y12, Y0, Y0)
	MSCORE(R10, Y13, Y14, Y15, Y0, Y0)
	VMOVUPD Y0, (SI)(AX*8)
	ADDQ    $4, AX
	JMP     scoreMask

scoreMaskDone:
	VZEROUPPER
	RET

// MTERM adds one row's w·x into sx, (w·x)·x into sxx and w into sw where
// x, broadcast from the column at byte offset off past row r, is known;
// where it is missing, x and w are ANDed to +0 and the three addends are
// +0.
#define MTERM(w, col, off, sx, sxx, sw) \
	VBROADCASTSD off(col)(AX*8), Y4 \
	VCMPPD       $7, Y4, Y4, Y5     \
	VANDPD       Y5, Y4, Y4         \
	VANDPD       Y5, w, Y5          \
	VADDPD       Y5, sw, sw         \
	VMULPD       Y4, Y5, Y5         \
	VADDPD       Y5, sx, sx         \
	VMULPD       Y4, Y5, Y5         \
	VADDPD       Y5, sxx, sxx

// MROW folds one row (w, at byte offset off past row r) into W and the
// sums of the three terms.
#define MROW(w, off) \
	VADDPD w, Y6, Y6                 \
	MTERM(w, R11, off, Y7, Y10, Y13) \
	MTERM(w, R12, off, Y8, Y11, Y14) \
	MTERM(w, R13, off, Y9, Y12, Y15)

// func foldLanesMaskAVX(v0, v1, v2, v3, inv, x0, x1, x2 *float64, quads int, store bool, s *laneSums)
TEXT ·foldLanesMaskAVX(SB), NOSPLIT, $0-88
	MOVQ    v0+0(FP), SI
	MOVQ    v1+8(FP), DI
	MOVQ    v2+16(FP), R8
	MOVQ    v3+24(FP), R9
	MOVQ    inv+32(FP), R10
	MOVQ    x0+40(FP), R11
	MOVQ    x1+48(FP), R12
	MOVQ    x2+56(FP), R13
	MOVQ    quads+64(FP), CX
	MOVBQZX store+72(FP), BX
	MOVQ    s+80(FP), DX

	// laneSums: w, sx[0…2], sxx[0…2], sw[0…2], 32 bytes each. The ten
	// sums take Y6…Y15; the rows, their transpose and each term's x and
	// mask share Y0…Y5.
	VMOVUPD 0(DX), Y6
	VMOVUPD 32(DX), Y7
	VMOVUPD 64(DX), Y8
	VMOVUPD 96(DX), Y9
	VMOVUPD 128(DX), Y10
	VMOVUPD 160(DX), Y11
	VMOVUPD 192(DX), Y12
	VMOVUPD 224(DX), Y13
	VMOVUPD 256(DX), Y14
	VMOVUPD 288(DX), Y15
	SHLQ    $2, CX
	XORQ    AX, AX

foldMask:
	CMPQ    AX, CX
	JGE     foldMaskDone
	VMOVUPD (SI)(AX*8), Y0
	VMULPD  (R10)(AX*8), Y0, Y0
	VMOVUPD (DI)(AX*8), Y1
	VMULPD  (R10)(AX*8), Y1, Y1
	VMOVUPD (R8)(AX*8), Y2
	VMULPD  (R10)(AX*8), Y2, Y2
	VMOVUPD (R9)(AX*8), Y3
	VMULPD  (R10)(AX*8), Y3, Y3
	TESTQ   BX, BX
	JZ      transpose
	VMOVUPD Y0, (SI)(AX*8)
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, (R8)(AX*8)
	VMOVUPD Y3, (R9)(AX*8)

transpose:
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y0
	VUNPCKHPD  Y3, Y2, Y1
	VPERM2F128 $0x20, Y0, Y4, Y2
	VPERM2F128 $0x20, Y1, Y5, Y3
	VPERM2F128 $0x31, Y0, Y4, Y0
	VPERM2F128 $0x31, Y1, Y5, Y1
	MROW(Y2, 0)
	MROW(Y3, 8)
	MROW(Y0, 16)
	MROW(Y1, 24)
	ADDQ       $4, AX
	JMP        foldMask

foldMaskDone:
	VMOVUPD Y6, 0(DX)
	VMOVUPD Y7, 32(DX)
	VMOVUPD Y8, 64(DX)
	VMOVUPD Y9, 96(DX)
	VMOVUPD Y10, 128(DX)
	VMOVUPD Y11, 160(DX)
	VMOVUPD Y12, 192(DX)
	VMOVUPD Y13, 224(DX)
	VMOVUPD Y14, 256(DX)
	VMOVUPD Y15, 288(DX)
	VZEROUPPER
	RET

// func foldMaxAVX(mx, v *float64, quads int)
TEXT ·foldMaxAVX(SB), NOSPLIT, $0-24
	MOVQ mx+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ quads+16(FP), CX
	SHLQ $2, CX
	XORQ AX, AX

foldMax:
	CMPQ AX, CX
	JGE  foldMaxDone

	// mx = v > mx ? v : mx (Intel operand order: VMAXPD mx, v, [mx]).
	VMOVUPD (SI)(AX*8), Y0
	VMAXPD  (DI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     foldMax

foldMaxDone:
	VZEROUPPER
	RET
