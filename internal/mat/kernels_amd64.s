#include "textflag.h"

// AVX2 row kernels for the float64 matmuls, an AVX2 kernel for the
// float64 nearest-word decode, an AVX2+FMA kernel for the float32
// MulInto32, AVX2 float32 sigmoid, tanh, exp, ReLU and LeakyReLU row
// leaves, AVX2+FMA float64 exp, sigmoid and tanh leaves, AVX2 float64
// ReLU and LeakyReLU leaves with their gradients, and an AVX2 Adam update
// (see kernels_amd64.go). Package init selects them only on CPUs with
// both AVX2 and FMA.
//
// Bit-exactness rules for the float64 kernels and the leaves, kept by
// every instruction of axpyRowsAVX2, dotRowsAVX2, nearest8AVX2 and every
// leaf:
//   - a multiply and an add are separate VMULPD/VADDPD (VMULSD/VADDSD in
//     the scalar tail; VMULPS/VADDPS/VSUBPS and a correctly rounded
//     VDIVPS in the float32 leaves; VDIVPD and VSQRTPD in adamRows),
//     never a fused multiply-add, except in EXP64, which repeats the
//     fused multiply-adds of math.Exp itself;
//   - each output element is summed in the Go reference's order: over kk
//     ascending for the matmuls, whose kk reduction is never split, and in
//     dot's case 8 grouping for the decode;
//   - each leaf lane runs its Go reference's operations in the same
//     order, and each branch of the reference (tanh32's ±4.97 clamps,
//     exp32's +Inf, +0 and NaN cases, math.tanh's three ranges and ±0,
//     sigmoid's sign, the ReLUs' comparisons with +0) becomes an ordered
//     or unordered compare and a blend. exp and sigmoid leave groups with
//     a lane outside math.Exp's normal range to the Go reference.
// Multiply and add are commutative and correctly rounded, so operand
// order changes no bits except a NaN's payload, which is outside the
// contract. The no-FMA rule covers every kernel but mulRows32FMA, which
// fuses because it serves the float32 fast path, which is pinned by
// distribution rather than bits, and EXP64.
//
// The float64 matmul kernels take (d, a, b *float64, m, n, k, ldd, ai,
// ak, ldb int) and use the same registers:
//   DI d row     SI a row      DX b          R8 rows left
//   R9 n*8       R10 k         R11 ak*8      R12 ldb*8
//   CX column offset in bytes  AX a cursor   BX b cursor
//   R13 kk counter             R14 scratch
//   Y0-Y7 accumulators, Y8-Y13 products, Y14 broadcast a element.
// Each row is computed in column blocks of 32 doubles held in Y0-Y7 across
// the whole kk loop, then blocks of 4 in Y0, then a scalar block per
// leftover column. (In DefaultConfig flow training about 4% of the
// multiply-adds fall outside 32-column blocks.)

#define LOADARGS \
	MOVQ d+0(FP), DI; \
	MOVQ a+8(FP), SI; \
	MOVQ b+16(FP), DX; \
	MOVQ m+24(FP), R8; \
	MOVQ n+32(FP), R9; \
	SHLQ $3, R9; \
	MOVQ k+40(FP), R10; \
	MOVQ ak+64(FP), R11; \
	SHLQ $3, R11; \
	MOVQ ldb+72(FP), R12; \
	SHLQ $3, R12

// BLOCKSTART points the cursors at the current row and column block.
#define BLOCKSTART \
	MOVQ SI, AX; \
	LEAQ (DX)(CX*1), BX; \
	MOVQ R10, R13

// NEXTK advances the cursors by one kk and loops while kk < k.
#define NEXTK(loop) \
	ADDQ R11, AX; \
	ADDQ R12, BX; \
	DECQ R13; \
	JNZ  loop

// SKIPZERO jumps to skip when the a element is +0 or -0.
#define SKIPZERO(skip) \
	MOVQ (AX), R14; \
	SHLQ $1, R14; \
	JZ   skip

// MULADD: acc += a*b for the 4 doubles at off(BX).
#define MULADD(off, acc, t) \
	VMULPD off(BX), Y14, t; \
	VADDPD t, acc, acc

#define LOAD8 \
	VMOVUPD 0(DI)(CX*1), Y0; \
	VMOVUPD 32(DI)(CX*1), Y1; \
	VMOVUPD 64(DI)(CX*1), Y2; \
	VMOVUPD 96(DI)(CX*1), Y3; \
	VMOVUPD 128(DI)(CX*1), Y4; \
	VMOVUPD 160(DI)(CX*1), Y5; \
	VMOVUPD 192(DI)(CX*1), Y6; \
	VMOVUPD 224(DI)(CX*1), Y7

#define STORE8 \
	VMOVUPD Y0, 0(DI)(CX*1); \
	VMOVUPD Y1, 32(DI)(CX*1); \
	VMOVUPD Y2, 64(DI)(CX*1); \
	VMOVUPD Y3, 96(DI)(CX*1); \
	VMOVUPD Y4, 128(DI)(CX*1); \
	VMOVUPD Y5, 160(DI)(CX*1); \
	VMOVUPD Y6, 192(DI)(CX*1); \
	VMOVUPD Y7, 224(DI)(CX*1)

#define ZERO8 \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7

// NEXTBLOCK picks the widest block that fits the columns left in the row,
// or moves to the next row when none are left.
#define NEXTBLOCK(w32, w4, w1, row, done) \
	MOVQ R9, R14; \
	SUBQ CX, R14; \
	CMPQ R14, $256; \
	JGE  w32; \
	CMPQ R14, $32; \
	JGE  w4; \
	CMPQ R14, $8; \
	JGE  w1; \
	MOVQ ldd+48(FP), R14; \
	LEAQ (DI)(R14*8), DI; \
	MOVQ ai+56(FP), R14; \
	LEAQ (SI)(R14*8), SI; \
	DECQ R8; \
	JNZ  row; \
	JMP  done

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

// func axpyRowsAVX2(d, a, b *float64, m, n, k, ldd, ai, ak, ldb int)
TEXT ·axpyRowsAVX2(SB), NOSPLIT, $0-80
	LOADARGS
	TESTQ R8, R8
	JLE   axpyDone
	TESTQ R10, R10
	JLE   axpyDone

axpyRow:
	XORQ CX, CX

axpyBlock:
	NEXTBLOCK(axpy32, axpy4, axpy1, axpyRow, axpyDone)

axpy32:
	LOAD8
	BLOCKSTART
	PCALIGN $32

axpy32Loop:
	SKIPZERO(axpy32Skip)
	VBROADCASTSD (AX), Y14
	MULADD(0, Y0, Y8)
	MULADD(32, Y1, Y9)
	MULADD(64, Y2, Y10)
	MULADD(96, Y3, Y11)
	MULADD(128, Y4, Y12)
	MULADD(160, Y5, Y13)
	MULADD(192, Y6, Y8)
	MULADD(224, Y7, Y9)

axpy32Skip:
	NEXTK(axpy32Loop)
	STORE8
	ADDQ $256, CX
	JMP  axpyBlock

axpy4:
	VMOVUPD 0(DI)(CX*1), Y0
	BLOCKSTART
	PCALIGN $32

axpy4Loop:
	SKIPZERO(axpy4Skip)
	VBROADCASTSD (AX), Y14
	MULADD(0, Y0, Y8)

axpy4Skip:
	NEXTK(axpy4Loop)
	VMOVUPD Y0, 0(DI)(CX*1)
	ADDQ    $32, CX
	JMP     axpyBlock

axpy1:
	VMOVSD 0(DI)(CX*1), X0
	BLOCKSTART
	PCALIGN $32

axpy1Loop:
	SKIPZERO(axpy1Skip)
	VMOVSD (AX), X14
	VMULSD (BX), X14, X8
	VADDSD X8, X0, X0

axpy1Skip:
	NEXTK(axpy1Loop)
	VMOVSD X0, 0(DI)(CX*1)
	ADDQ   $8, CX
	JMP    axpyBlock

axpyDone:
	VZEROUPPER
	RET

// func dotRowsAVX2(d, a, b *float64, m, n, k, ldd, ai, ak, ldb int)
TEXT ·dotRowsAVX2(SB), NOSPLIT, $0-80
	LOADARGS
	TESTQ R8, R8
	JLE   dotDone
	TESTQ R10, R10
	JLE   dotDone

dotRow:
	XORQ CX, CX

dotBlock:
	NEXTBLOCK(dot32, dot4, dot1, dotRow, dotDone)

dot32:
	ZERO8
	BLOCKSTART
	PCALIGN $32

dot32Loop:
	VBROADCASTSD (AX), Y14
	MULADD(0, Y0, Y8)
	MULADD(32, Y1, Y9)
	MULADD(64, Y2, Y10)
	MULADD(96, Y3, Y11)
	MULADD(128, Y4, Y12)
	MULADD(160, Y5, Y13)
	MULADD(192, Y6, Y8)
	MULADD(224, Y7, Y9)
	NEXTK(dot32Loop)
	STORE8
	ADDQ $256, CX
	JMP  dotBlock

dot4:
	VXORPD Y0, Y0, Y0
	BLOCKSTART
	PCALIGN $32

dot4Loop:
	VBROADCASTSD (AX), Y14
	MULADD(0, Y0, Y8)
	NEXTK(dot4Loop)
	VMOVUPD Y0, 0(DI)(CX*1)
	ADDQ    $32, CX
	JMP     dotBlock

dot1:
	VXORPD X0, X0, X0
	BLOCKSTART
	PCALIGN $32

dot1Loop:
	VMOVSD (AX), X14
	VMULSD (BX), X14, X8
	VADDSD X8, X0, X0
	NEXTK(dot1Loop)
	VMOVSD X0, 0(DI)(CX*1)
	ADDQ   $8, CX
	JMP    dotBlock

dotDone:
	VZEROUPPER
	RET

// func transposeAVX2(dst, src *float64, rows, cols, ldd, lds int)
// Each step loads a 4×4 tile as four src row pieces, transposes it with
// unpacks and 128-bit lane permutes, and stores it as four dst row pieces.
TEXT ·transposeAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), R9
	MOVQ ldd+32(FP), R10
	SHLQ $3, R10
	MOVQ lds+40(FP), R11
	SHLQ $3, R11
	TESTQ R8, R8
	JLE   transposeDone
	TESTQ R9, R9
	JLE   transposeDone
	LEAQ  (R11)(R11*2), R12
	LEAQ  (R10)(R10*2), R13

transposeRows:
	MOVQ SI, AX
	MOVQ DI, BX
	MOVQ R9, CX
	PCALIGN $32

transposeTile:
	VMOVUPD    (AX), Y0
	VMOVUPD    (AX)(R11*1), Y1
	VMOVUPD    (AX)(R11*2), Y2
	VMOVUPD    (AX)(R12*1), Y3
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VMOVUPD    Y0, (BX)
	VMOVUPD    Y1, (BX)(R10*1)
	VMOVUPD    Y2, (BX)(R10*2)
	VMOVUPD    Y3, (BX)(R13*1)
	ADDQ       $32, AX
	LEAQ       (BX)(R10*4), BX
	SUBQ       $4, CX
	JNZ        transposeTile
	LEAQ       (SI)(R11*4), SI
	ADDQ       $32, DI
	SUBQ       $4, R8
	JNZ        transposeRows

transposeDone:
	VZEROUPPER
	RET

DATA nearestInf<>+0(SB)/8, $0x7ff0000000000000
GLOBL nearestInf<>(SB), RODATA|NOPTR, $8
DATA nearestOne<>+0(SB)/8, $1
GLOBL nearestOne<>(SB), RODATA|NOPTR, $8

// MULW: t = w[off/8] broadcast times query dimension q, four queries wide.
#define MULW(off, q, t) \
	VBROADCASTSD off(BX), t; \
	VMULPD       q, t, t

// func nearest8AVX2(pick *int, best, qt, w, sq *float64, n, words int)
// Queries go four at a time, their 8 dimensions in Y0-Y7 across the whole
// word loop; Y8 holds the four best distances, Y9 their picks as int64
// lanes, Y10 the current word index and Y11 the index step. Per word,
// Y12 = (((x0y0+x4y4) + (x1y1+x5y5)) + (x2y2+x6y6)) + (x3y3+x7y7), dot's
// case 8 order, then Y13 = sq[j] - (Y12+Y12), exactly sq[j] - 2*dot.
//   DI pick    SI best    DX qt      R8 w       R9 sq
//   R10 queries left      R11 words  R12 qt row stride in bytes
//   R13 3*R12  CX group offset in bytes   BX w cursor   R14 sq cursor
//   AX qt cursor, then words left
TEXT ·nearest8AVX2(SB), NOSPLIT, $0-56
	MOVQ  pick+0(FP), DI
	MOVQ  best+8(FP), SI
	MOVQ  qt+16(FP), DX
	MOVQ  w+24(FP), R8
	MOVQ  sq+32(FP), R9
	MOVQ  n+40(FP), R10
	MOVQ  words+48(FP), R11
	MOVQ  R10, R12
	SHLQ  $3, R12
	LEAQ  (R12)(R12*2), R13
	TESTQ R10, R10
	JLE   nearestDone
	TESTQ R11, R11
	JLE   nearestDone
	VBROADCASTSD nearestInf<>(SB), Y15
	VPBROADCASTQ nearestOne<>(SB), Y11
	XORQ  CX, CX

nearestGroup:
	LEAQ    (DX)(CX*1), AX
	VMOVUPD (AX), Y0
	VMOVUPD (AX)(R12*1), Y1
	VMOVUPD (AX)(R12*2), Y2
	VMOVUPD (AX)(R13*1), Y3
	LEAQ    (AX)(R12*4), AX
	VMOVUPD (AX), Y4
	VMOVUPD (AX)(R12*1), Y5
	VMOVUPD (AX)(R12*2), Y6
	VMOVUPD (AX)(R13*1), Y7
	VMOVAPD Y15, Y8
	VPXOR   Y9, Y9, Y9
	VPXOR   Y10, Y10, Y10
	MOVQ    R8, BX
	MOVQ    R9, R14
	MOVQ    R11, AX
	PCALIGN $32

nearestWord:
	MULW(0, Y0, Y12)
	MULW(32, Y4, Y13)
	VADDPD Y13, Y12, Y12
	MULW(8, Y1, Y13)
	MULW(40, Y5, Y14)
	VADDPD Y14, Y13, Y13
	VADDPD Y13, Y12, Y12
	MULW(16, Y2, Y13)
	MULW(48, Y6, Y14)
	VADDPD Y14, Y13, Y13
	VADDPD Y13, Y12, Y12
	MULW(24, Y3, Y13)
	MULW(56, Y7, Y14)
	VADDPD Y14, Y13, Y13
	VADDPD Y13, Y12, Y12
	VADDPD Y12, Y12, Y12
	VBROADCASTSD (R14), Y13
	VSUBPD Y12, Y13, Y13
	VCMPPD $0x11, Y8, Y13, Y14 // LT_OQ: Y14 = Y13 < Y8, false on NaN
	VBLENDVPD Y14, Y13, Y8, Y8
	VBLENDVPD Y14, Y10, Y9, Y9
	VPADDQ Y11, Y10, Y10
	ADDQ   $64, BX
	ADDQ   $8, R14
	DECQ   AX
	JNZ    nearestWord
	VMOVUPD Y8, (SI)(CX*1)
	VMOVDQU Y9, (DI)(CX*1)
	ADDQ    $32, CX
	SUBQ    $4, R10
	JNZ     nearestGroup

nearestDone:
	VZEROUPPER
	RET

// mul32Mask is 8 all-ones lanes, then 8 zero lanes: the 8 lanes from byte
// 32-w on mask the first w bytes of a vector.
DATA mul32Mask<>+0(SB)/8, $-1
DATA mul32Mask<>+8(SB)/8, $-1
DATA mul32Mask<>+16(SB)/8, $-1
DATA mul32Mask<>+24(SB)/8, $-1
DATA mul32Mask<>+32(SB)/8, $0
DATA mul32Mask<>+40(SB)/8, $0
DATA mul32Mask<>+48(SB)/8, $0
DATA mul32Mask<>+56(SB)/8, $0
GLOBL mul32Mask<>(SB), RODATA|NOPTR, $64

// TILEROW points tile row i at row min(R9+i, m-1), with DX = m-1: areg
// at the end of that row of a, and the local dslot at its row of d.
#define TILEROW(i, areg, dslot) \
	LEAQ    i(R9), AX; \
	CMPQ    AX, DX; \
	CMOVQGT DX, AX; \
	MOVQ    AX, R14; \
	IMULQ   R12, R14; \
	ADDQ    d+0(FP), R14; \
	MOVQ    R14, dslot; \
	INCQ    AX; \
	IMULQ   SI, AX; \
	MOVQ    a+8(FP), areg; \
	SUBQ    AX, areg

// FMA16: lo, hi += the a element at aoff of row arow times the 16 b
// floats in Y8, Y9.
#define FMA16(aoff, arow, lo, hi) \
	VBROADCASTSS aoff(arow)(AX*1), Y10; \
	VFMADD231PS  Y8, Y10, lo; \
	VFMADD231PS  Y9, Y10, hi

// STEP16 adds one kk to the 4×16 tile: the b row's 16 floats at b0 and
// b1, the four rows' a elements at aoff.
#define STEP16(b0, b1, aoff) \
	VMOVUPS b0, Y8; \
	VMOVUPS b1, Y9; \
	FMA16(aoff, R8, Y0, Y1); \
	FMA16(aoff, R10, Y2, Y3); \
	FMA16(aoff, R11, Y4, Y5); \
	FMA16(aoff, R13, Y6, Y7)

// FMA8: acc += the a element of row arow times the 8 b floats in Y8.
#define FMA8(arow, acc) \
	VBROADCASTSS (arow)(AX*1), Y10; \
	VFMADD231PS  Y8, Y10, acc

#define STORE16(dslot, lo, hi) \
	MOVQ    dslot, R14; \
	VMOVUPS lo, (R14)(CX*1); \
	VMOVUPS hi, 32(R14)(CX*1)

#define STORE8MASKED(dslot, acc) \
	MOVQ       dslot, R14; \
	VMASKMOVPS acc, Y15, (R14)(CX*1)

// func mulRows32FMA(d, a, b *float32, m, n, k int)
// The float32 product for MulInto32, allowed to fuse: each output element
// is one VFMADD231PS chain over kk ascending from +0. Rows go in tiles of
// four; when m is not a multiple of 4, the last tile's leftover rows
// repeat row m-1, whose duplicate chains store the same bits. Each tile
// runs blocks of 16 columns, its 4×16 floats in Y0-Y7 across the whole kk
// loop, so each loaded b vector feeds four FMAs; the kk loop runs two kk
// per pass, after one lone kk when k is odd. Then the last 1 to 15
// columns in blocks of up to 8, in Y0-Y3, whose b loads and d stores are
// masked to the columns left (Y15, from mul32Mask).
//   R8 R10 R11 R13 the tile's four rows of a, each at the end of its row
//   AX kk offset in bytes, from -k*4 up to 0      SI -k*4
//   DI b       BX b cursor    R12 n*4, the row stride of d and b
//   CX column offset in bytes R9 first row of the tile
//   DX m-1, then the masked block's width in bytes
//   R14 scratch               d0-d3 the tile's four rows of d
TEXT ·mulRows32FMA(SB), NOSPLIT, $32-48
	MOVQ  n+32(FP), R12
	SHLQ  $2, R12
	MOVQ  b+16(FP), DI
	XORQ  R9, R9
	MOVQ  k+40(FP), SI
	SHLQ  $2, SI
	NEGQ  SI
	JGE   mul32Done
	CMPQ  m+24(FP), $0
	JLE   mul32Done

mul32Tile:
	MOVQ m+24(FP), DX
	DECQ DX
	TILEROW(0, R8, d0-32(SP))
	TILEROW(1, R10, d1-24(SP))
	TILEROW(2, R11, d2-16(SP))
	TILEROW(3, R13, d3-8(SP))
	XORQ CX, CX

mul32Block:
	MOVQ  R12, R14
	SUBQ  CX, R14
	CMPQ  R14, $64
	JGE   mul32W16
	TESTQ R14, R14
	JG    mul32Tail
	ADDQ  $4, R9
	CMPQ  R9, m+24(FP)
	JLT   mul32Tile
	JMP   mul32Done

mul32W16:
	ZERO8
	MOVQ  SI, AX
	LEAQ  (DI)(CX*1), BX
	TESTQ $4, AX
	JZ    mul32W16Loop
	STEP16((BX), 32(BX), 0)
	ADDQ  R12, BX
	ADDQ  $4, AX
	JZ    mul32W16Store
	PCALIGN $32

mul32W16Loop:
	STEP16((BX), 32(BX), 0)
	STEP16((BX)(R12*1), 32(BX)(R12*1), 4)
	LEAQ (BX)(R12*2), BX
	ADDQ $8, AX
	JNZ  mul32W16Loop

mul32W16Store:
	STORE16(d0-32(SP), Y0, Y1)
	STORE16(d1-24(SP), Y2, Y3)
	STORE16(d2-16(SP), Y4, Y5)
	STORE16(d3-8(SP), Y6, Y7)
	ADDQ    $64, CX
	JMP     mul32Block

mul32Tail:
	MOVQ    $32, DX
	CMPQ    R14, DX
	CMOVQLT R14, DX
	LEAQ    mul32Mask<>+32(SB), BX
	SUBQ    DX, BX
	VMOVUPS (BX), Y15
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
	MOVQ    SI, AX
	LEAQ    (DI)(CX*1), BX
	PCALIGN $32

mul32TailLoop:
	VMASKMOVPS (BX), Y15, Y8
	FMA8(R8, Y0)
	FMA8(R10, Y1)
	FMA8(R11, Y2)
	FMA8(R13, Y3)
	ADDQ       R12, BX
	ADDQ       $4, AX
	JNZ        mul32TailLoop
	STORE8MASKED(d0-32(SP), Y0)
	STORE8MASKED(d1-24(SP), Y1)
	STORE8MASKED(d2-16(SP), Y2)
	STORE8MASKED(d3-8(SP), Y3)
	ADDQ       DX, CX
	JMP        mul32Block

mul32Done:
	VZEROUPPER
	RET

// Constants of the float32 activation leaves, as float32 bits (act32ExpBias
// is the int32 exponent bias). Each is broadcast to all 8 lanes where it is
// used.
DATA act32<>+0(SB)/4, $0x3f000000  // 0.5
DATA act32<>+4(SB)/4, $0x3f800000  // 1
DATA act32<>+8(SB)/4, $0xbf800000  // -1
DATA act32<>+12(SB)/4, $0x409f0a3d // 4.97
DATA act32<>+16(SB)/4, $0xc09f0a3d // -4.97
DATA act32<>+20(SB)/4, $0x43bd0000 // 378
DATA act32<>+24(SB)/4, $0x46875a00 // 17325
DATA act32<>+28(SB)/4, $0x4803f7c0 // 135135
DATA act32<>+32(SB)/4, $0x41e00000 // 28
DATA act32<>+36(SB)/4, $0x4544e000 // 3150
DATA act32<>+40(SB)/4, $0x4773a200 // 62370
DATA act32<>+44(SB)/4, $0x3fb8aa3b // expLog2e
DATA act32<>+48(SB)/4, $0x4b400000 // expRound
DATA act32<>+52(SB)/4, $0x3f318000 // expLn2Hi
DATA act32<>+56(SB)/4, $0xb95e8083 // expLn2Lo
DATA act32<>+60(SB)/4, $0x39506967 // expP0
DATA act32<>+64(SB)/4, $0x3ab743ce // expP1
DATA act32<>+68(SB)/4, $0x3c088908 // expP2
DATA act32<>+72(SB)/4, $0x3d2aa9c1 // expP3
DATA act32<>+76(SB)/4, $0x3e2aaaaa // expP4
DATA act32<>+80(SB)/4, $0x3f000000 // expP5
DATA act32<>+84(SB)/4, $0x42b17217 // expHi
DATA act32<>+88(SB)/4, $0xc2cff1b4 // expLo
DATA act32<>+92(SB)/4, $0x7f800000 // +Inf
DATA act32<>+96(SB)/4, $127        // act32ExpBias
GLOBL act32<>(SB), RODATA|NOPTR, $100

#define act32Half act32<>+0(SB)
#define act32One act32<>+4(SB)
#define act32NegOne act32<>+8(SB)
#define act32Clamp act32<>+12(SB)
#define act32NegClamp act32<>+16(SB)
#define act32P378 act32<>+20(SB)
#define act32P17325 act32<>+24(SB)
#define act32P135135 act32<>+28(SB)
#define act32Q28 act32<>+32(SB)
#define act32Q3150 act32<>+36(SB)
#define act32Q62370 act32<>+40(SB)
#define act32ExpLog2e act32<>+44(SB)
#define act32ExpRound act32<>+48(SB)
#define act32ExpLn2Hi act32<>+52(SB)
#define act32ExpLn2Lo act32<>+56(SB)
#define act32ExpP0 act32<>+60(SB)
#define act32ExpP1 act32<>+64(SB)
#define act32ExpP2 act32<>+68(SB)
#define act32ExpP3 act32<>+72(SB)
#define act32ExpP4 act32<>+76(SB)
#define act32ExpP5 act32<>+80(SB)
#define act32ExpHi act32<>+84(SB)
#define act32ExpLo act32<>+88(SB)
#define act32Inf act32<>+92(SB)
#define act32ExpBias act32<>+96(SB)

// HORNER: acc = acc·x + the constant c, broadcast into t.
#define HORNER(acc, x, c, t) \
	VMULPS       x, acc, acc; \
	VBROADCASTSS c, t; \
	VADDPS       t, acc, acc

// TANH32 sets each lane of Y0 to tanh32 of it, using Y1-Y5:
// Y1 = x², Y2 = p = x·(135135 + x²(17325 + x²(378 + x²))),
// Y4 = q = 135135 + x²(62370 + x²(3150 + 28x²)), then p/q, and ±1 where
// x > 4.97 or x < -4.97 (ordered compares: a NaN lane keeps p/q, a NaN).
#define TANH32 \
	VMULPS       Y0, Y0, Y1; \
	VBROADCASTSS act32P378, Y2; \
	VADDPS       Y1, Y2, Y2; \
	HORNER(Y2, Y1, act32P17325, Y3); \
	HORNER(Y2, Y1, act32P135135, Y3); \
	VMULPS       Y0, Y2, Y2; \
	VBROADCASTSS act32Q28, Y4; \
	VMULPS       Y1, Y4, Y4; \
	VBROADCASTSS act32Q3150, Y5; \
	VADDPS       Y5, Y4, Y4; \
	HORNER(Y4, Y1, act32Q62370, Y5); \
	VMULPS       Y1, Y4, Y4; \
	VADDPS       Y3, Y4, Y4; \
	VDIVPS       Y4, Y2, Y2; \
	VBROADCASTSS act32Clamp, Y1; \
	VCMPPS       $0x1e, Y1, Y0, Y3; \
	VBROADCASTSS act32One, Y4; \
	VBLENDVPS    Y3, Y4, Y2, Y2; \
	VBROADCASTSS act32NegClamp, Y1; \
	VCMPPS       $0x11, Y1, Y0, Y3; \
	VBROADCASTSS act32NegOne, Y4; \
	VBLENDVPS    Y3, Y4, Y2, Y0

// SIGMOID32 sets each lane of Y0 to sigmoid32 of it, 0.5 + 0.5·tanh32(0.5·x),
// using Y1-Y6.
#define SIGMOID32 \
	VBROADCASTSS act32Half, Y6; \
	VMULPS       Y6, Y0, Y0; \
	TANH32; \
	VMULPS       Y6, Y0, Y0; \
	VADDPS       Y6, Y0, Y0

// EXP32 sets each lane of Y0 to exp32 of it, using Y1-Y5: t = x·log2e +
// expRound, n = t - expRound and its integer ni = bits(t) - bits(expRound)
// in Y1, r in Y2, r² in Y3, the polynomial in Y4; then the two powers of
// two 2^(ni>>1) and 2^(ni - ni>>1) built in the exponent bits; then +Inf
// where x > expHi, +0 where x < expLo and x itself where x is NaN.
#define EXP32 \
	VBROADCASTSS act32ExpLog2e, Y1; \
	VMULPS       Y1, Y0, Y1; \
	VBROADCASTSS act32ExpRound, Y2; \
	VADDPS       Y2, Y1, Y1; \
	VSUBPS       Y2, Y1, Y3; \
	VPSUBD       Y2, Y1, Y1; \
	VBROADCASTSS act32ExpLn2Hi, Y2; \
	VMULPS       Y3, Y2, Y2; \
	VSUBPS       Y2, Y0, Y2; \
	VBROADCASTSS act32ExpLn2Lo, Y4; \
	VMULPS       Y3, Y4, Y4; \
	VSUBPS       Y4, Y2, Y2; \
	VMULPS       Y2, Y2, Y3; \
	VBROADCASTSS act32ExpP0, Y4; \
	VMULPS       Y2, Y4, Y4; \
	VBROADCASTSS act32ExpP1, Y5; \
	VADDPS       Y5, Y4, Y4; \
	HORNER(Y4, Y2, act32ExpP2, Y5); \
	HORNER(Y4, Y2, act32ExpP3, Y5); \
	HORNER(Y4, Y2, act32ExpP4, Y5); \
	HORNER(Y4, Y2, act32ExpP5, Y5); \
	VMULPS       Y3, Y4, Y4; \
	VADDPS       Y2, Y4, Y4; \
	VBROADCASTSS act32One, Y5; \
	VADDPS       Y5, Y4, Y4; \
	VPSRAD       $1, Y1, Y2; \
	VPSUBD       Y2, Y1, Y1; \
	VPBROADCASTD act32ExpBias, Y5; \
	VPADDD       Y5, Y2, Y2; \
	VPSLLD       $23, Y2, Y2; \
	VMULPS       Y2, Y4, Y4; \
	VPADDD       Y5, Y1, Y1; \
	VPSLLD       $23, Y1, Y1; \
	VMULPS       Y1, Y4, Y4; \
	VBROADCASTSS act32ExpHi, Y1; \
	VCMPPS       $0x1e, Y1, Y0, Y2; \
	VBROADCASTSS act32Inf, Y1; \
	VBLENDVPS    Y2, Y1, Y4, Y4; \
	VBROADCASTSS act32ExpLo, Y1; \
	VCMPPS       $0x11, Y1, Y0, Y2; \
	VXORPS       Y1, Y1, Y1; \
	VBLENDVPS    Y2, Y1, Y4, Y4; \
	VCMPPS       $0x03, Y0, Y0, Y2; \
	VBLENDVPS    Y2, Y0, Y4, Y0

// ROW32 applies the leaf macro F in place to the float32 slice argument
// row, which must hold at least 8 elements: first to its last 8, whose
// result waits in Y15 (F must leave Y15 alone), then to each whole 8 from
// the start, and only then is Y15 stored. Elements that the last 8 share
// with a whole 8 are computed twice from the same original value and get
// the same bits both times, so no tail needs a mask.
//   DI row cursor   CX elements left   SI the last 8
#define ROW32(F, loop, done) \
	MOVQ    row_base+0(FP), DI; \
	MOVQ    row_len+8(FP), CX; \
	LEAQ    -32(DI)(CX*4), SI; \
	VMOVUPS (SI), Y0; \
	F; \
	VMOVAPS Y0, Y15; \
	SUBQ    $8, CX; \
	JLE     done; \
loop: \
	VMOVUPS (DI), Y0; \
	F; \
	VMOVUPS Y0, (DI); \
	ADDQ    $32, DI; \
	SUBQ    $8, CX; \
	JG      loop; \
done: \
	VMOVUPS Y15, (SI); \
	VZEROUPPER; \
	RET

// func sigmoid32Rows(row []float32)
TEXT ·sigmoid32Rows(SB), NOSPLIT, $0-24
	ROW32(SIGMOID32, sigmoidLoop, sigmoidDone)

// func tanh32Rows(row []float32)
TEXT ·tanh32Rows(SB), NOSPLIT, $0-24
	ROW32(TANH32, tanhLoop, tanhDone)

// func exp32Rows(row []float32)
TEXT ·exp32Rows(SB), NOSPLIT, $0-24
	ROW32(EXP32, expLoop, expDone)

// relu32Rows and leakyRelu32Rows: each lane x < +0 (an ordered compare,
// so −0 and NaN keep their bits) becomes +0, or slope·x, which waits in
// Y14.
#define RELU32 \
	VXORPS    Y1, Y1, Y1; \
	VCMPPS    $0x11, Y1, Y0, Y2; \
	VBLENDVPS Y2, Y1, Y0, Y0

#define LEAKYRELU32 \
	VXORPS    Y1, Y1, Y1; \
	VCMPPS    $0x11, Y1, Y0, Y2; \
	VMULPS    Y14, Y0, Y1; \
	VBLENDVPS Y2, Y1, Y0, Y0

// func relu32Rows(row []float32)
TEXT ·relu32Rows(SB), NOSPLIT, $0-24
	ROW32(RELU32, relu32Loop, relu32Done)

// func leakyRelu32Rows(row []float32, slope float32)
TEXT ·leakyRelu32Rows(SB), NOSPLIT, $0-28
	VBROADCASTSS slope+24(FP), Y14
	ROW32(LEAKYRELU32, leakyRelu32Loop, leakyRelu32Done)

// Constants of the float64 leaves, each in 4 lanes so that it can be an
// instruction's memory operand. The exp constants are math/exp_amd64.s's,
// written the same way.
#define F64X4(off, v) \
	DATA f64c<>+(off)(SB)/8, v; \
	DATA f64c<>+(off+8)(SB)/8, v; \
	DATA f64c<>+(off+16)(SB)/8, v; \
	DATA f64c<>+(off+24)(SB)/8, v

F64X4(0, $0x7fffffffffffffff)                  // |x| mask
F64X4(32, $-9223372036854775808)               // sign bit
F64X4(64, $1.0)
F64X4(96, $2.0)
F64X4(128, $0.5)
F64X4(160, $1.4426950408889634073599246810018920)           // LOG2E
F64X4(192, $0.69314718055966295651160180568695068359375)    // LN2U
F64X4(224, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
F64X4(256, $0.0625)
F64X4(288, $1.6666666666666666667e-1)
F64X4(320, $4.1666666666666666667e-2)
F64X4(352, $8.3333333333333333333e-3)
F64X4(384, $1.3888888888888888889e-3)
F64X4(416, $1.9841269841269841270e-4)
F64X4(448, $2.4801587301587301587e-5)
F64X4(480, $1023)                              // exponent bias, int64
F64X4(512, $708.0)                             // expRows' range limit
F64X4(544, $-9.64399179425052238628e-1)        // tanhP
F64X4(576, $-9.92877231001918586564e1)
F64X4(608, $-1.61468768441708447952e3)
F64X4(640, $1.12811678491632931402e2)          // tanhQ
F64X4(672, $2.23548839060100448583e3)
F64X4(704, $4.84406305325125486048e3)
F64X4(736, $0.625)                             // tanh's rational-form limit
F64X4(768, $44.014845965556527147994)          // tanh's ±1 limit, 0.5·MAXLOG
GLOBL f64c<>(SB), RODATA|NOPTR, $800

#define f64Abs f64c<>+0(SB)
#define f64Sign f64c<>+32(SB)
#define f64One f64c<>+64(SB)
#define f64Two f64c<>+96(SB)
#define f64Half f64c<>+128(SB)
#define f64Log2e f64c<>+160(SB)
#define f64Ln2U f64c<>+192(SB)
#define f64Ln2L f64c<>+224(SB)
#define f64Sixteenth f64c<>+256(SB)
#define f64Exp24 f64c<>+288(SB)
#define f64Exp32 f64c<>+320(SB)
#define f64Exp40 f64c<>+352(SB)
#define f64Exp48 f64c<>+384(SB)
#define f64Exp56 f64c<>+416(SB)
#define f64Exp64 f64c<>+448(SB)
#define f64Bias f64c<>+480(SB)
#define f64ExpLimit f64c<>+512(SB)
#define f64TanhP0 f64c<>+544(SB)
#define f64TanhP1 f64c<>+576(SB)
#define f64TanhP2 f64c<>+608(SB)
#define f64TanhQ0 f64c<>+640(SB)
#define f64TanhQ1 f64c<>+672(SB)
#define f64TanhQ2 f64c<>+704(SB)
#define f64TanhSmall f64c<>+736(SB)
#define f64TanhBig f64c<>+768(SB)

// EXP64 sets each lane of x to math.Exp of it, for lanes with |x| < 708:
// the avxfma branch of math/exp_amd64.s, 4 lanes wide and instruction for
// instruction. n = x·LOG2E rounded to an integer (nx, int32 lanes, then
// t as doubles); r = (x − n·LN2U − n·LN2L)/16 with both steps fused; the
// Taylor polynomial in t by fused Horner steps; four doublings
// y·(y + 2), the last one fused with the final + 1; and the scale 2ⁿ
// built in the exponent bits of n. Other lanes get unspecified values.
#define EXP64(x, n, nx, t) \
	VMULPD       f64Log2e, x, t; \
	VCVTPD2DQY   t, nx; \
	VCVTDQ2PD    nx, t; \
	VFNMADD231PD f64Ln2U, t, x; \
	VFNMADD231PD f64Ln2L, t, x; \
	VMULPD       f64Sixteenth, x, x; \
	VMOVUPD      f64Exp64, t; \
	VFMADD213PD  f64Exp56, x, t; \
	VFMADD213PD  f64Exp48, x, t; \
	VFMADD213PD  f64Exp40, x, t; \
	VFMADD213PD  f64Exp32, x, t; \
	VFMADD213PD  f64Exp24, x, t; \
	VFMADD213PD  f64Half, x, t; \
	VFMADD213PD  f64One, x, t; \
	VMULPD       t, x, x; \
	VADDPD       f64Two, x, t; \
	VMULPD       t, x, x; \
	VADDPD       f64Two, x, t; \
	VMULPD       t, x, x; \
	VADDPD       f64Two, x, t; \
	VMULPD       t, x, x; \
	VADDPD       f64Two, x, t; \
	VFMADD213PD  f64One, t, x; \
	VPMOVSXDQ    nx, n; \
	VPADDQ       f64Bias, n, n; \
	VPSLLQ       $52, n, n; \
	VMULPD       n, x, x

// EXPLANE sets each lane of Y0 to exp of it (for expRows).
#define EXPLANE EXP64(Y0, Y1, X1, Y2)

// SIGMOID64 sets each lane x of Y0 to sigmoid of it, using Y1-Y3: e =
// exp(−|x|), then 1/(1+e) where x ≥ 0 (an ordered compare) and e/(1+e)
// elsewhere.
#define SIGMOID64 \
	VORPD     f64Sign, Y0, Y1; \
	EXP64(Y1, Y2, X2, Y3); \
	VADDPD    f64One, Y1, Y2; \
	VMOVUPD   f64One, Y3; \
	VDIVPD    Y2, Y3, Y3; \
	VDIVPD    Y2, Y1, Y1; \
	VXORPD    Y2, Y2, Y2; \
	VCMPPD    $0x1d, Y2, Y0, Y2; \
	VBLENDVPD Y2, Y3, Y1, Y0

// TANH64 sets each lane x of Y0 to math.Tanh of it, using Y1-Y6. It
// computes both of math.tanh's branches from z = |x| (Y1): the large one,
// 1 − 2/(exp(2z) + 1) with x's sign (Y6) put back, in Y4, and the
// rational one, x + ((x·s)·P(s))/Q(s) with s = x², in Y2; then takes the
// large one where z ≥ 0.625, ±1 where z > 0.5·MAXLOG (ordered compares,
// so a NaN lane keeps the rational form, a NaN) and x itself where x is
// ±0. Lanes whose exp(2z) is out of range are replaced by ±1 or NaN.
#define TANH64 \
	VANDPD       f64Abs, Y0, Y1; \
	VADDPD       Y1, Y1, Y2; \
	EXP64(Y2, Y3, X3, Y4); \
	VADDPD       f64One, Y2, Y2; \
	VMOVUPD      f64Two, Y3; \
	VDIVPD       Y2, Y3, Y3; \
	VMOVUPD      f64One, Y4; \
	VSUBPD       Y3, Y4, Y4; \
	VANDPD       f64Sign, Y0, Y6; \
	VXORPD       Y6, Y4, Y4; \
	VMULPD       Y0, Y0, Y2; \
	VMULPD       f64TanhP0, Y2, Y3; \
	VADDPD       f64TanhP1, Y3, Y3; \
	VMULPD       Y2, Y3, Y3; \
	VADDPD       f64TanhP2, Y3, Y3; \
	VADDPD       f64TanhQ0, Y2, Y5; \
	VMULPD       Y2, Y5, Y5; \
	VADDPD       f64TanhQ1, Y5, Y5; \
	VMULPD       Y2, Y5, Y5; \
	VADDPD       f64TanhQ2, Y5, Y5; \
	VMULPD       Y0, Y2, Y2; \
	VMULPD       Y3, Y2, Y2; \
	VDIVPD       Y5, Y2, Y2; \
	VADDPD       Y0, Y2, Y2; \
	VCMPPD       $0x1d, f64TanhSmall, Y1, Y3; \
	VBLENDVPD    Y3, Y4, Y2, Y2; \
	VCMPPD       $0x1e, f64TanhBig, Y1, Y3; \
	VORPD        f64One, Y6, Y4; \
	VBLENDVPD    Y3, Y4, Y2, Y2; \
	VXORPD       Y4, Y4, Y4; \
	VCMPPD       $0x00, Y4, Y0, Y3; \
	VBLENDVPD    Y3, Y0, Y2, Y0

// RELU64 and LEAKYRELU64 are RELU32 and LEAKYRELU32 on float64 lanes.
#define RELU64 \
	VXORPD    Y1, Y1, Y1; \
	VCMPPD    $0x11, Y1, Y0, Y2; \
	VBLENDVPD Y2, Y1, Y0, Y0

#define LEAKYRELU64 \
	VXORPD    Y1, Y1, Y1; \
	VCMPPD    $0x11, Y1, Y0, Y2; \
	VMULPD    Y14, Y0, Y1; \
	VBLENDVPD Y2, Y1, Y0, Y0

// RELUGRAD64 and LEAKYRELUGRAD64 set each lane of dx (Y0) to +0, or to
// dx·slope (slope in Y14), where its lane of y (Y1) is ≤ +0 (an ordered
// compare: true at −0, false at NaN).
#define RELUGRAD64 \
	VXORPD    Y2, Y2, Y2; \
	VCMPPD    $0x12, Y2, Y1, Y3; \
	VBLENDVPD Y3, Y2, Y0, Y0

#define LEAKYRELUGRAD64 \
	VXORPD    Y2, Y2, Y2; \
	VCMPPD    $0x12, Y2, Y1, Y3; \
	VMULPD    Y14, Y0, Y2; \
	VBLENDVPD Y3, Y2, Y0, Y0

// ROW64 is ROW32 for a float64 row of at least 4 elements, 4 lanes at a
// time.
#define ROW64(F, loop, done) \
	MOVQ    row_base+0(FP), DI; \
	MOVQ    row_len+8(FP), CX; \
	LEAQ    -32(DI)(CX*8), SI; \
	VMOVUPD (SI), Y0; \
	F; \
	VMOVAPD Y0, Y15; \
	SUBQ    $4, CX; \
	JLE     done; \
loop: \
	VMOVUPD (DI), Y0; \
	F; \
	VMOVUPD Y0, (DI); \
	ADDQ    $32, DI; \
	SUBQ    $4, CX; \
	JG      loop; \
done: \
	VMOVUPD Y15, (SI); \
	VZEROUPPER; \
	RET

// GRAD64 is ROW64 over dx in Y0 with the matching lanes of y in Y1.
//   DI dx cursor   BX y cursor   CX elements left   SI, DX the last 4
#define GRAD64(F, loop, done) \
	MOVQ    dx_base+0(FP), DI; \
	MOVQ    y_base+24(FP), BX; \
	MOVQ    dx_len+8(FP), CX; \
	LEAQ    -32(DI)(CX*8), SI; \
	LEAQ    -32(BX)(CX*8), DX; \
	VMOVUPD (SI), Y0; \
	VMOVUPD (DX), Y1; \
	F; \
	VMOVAPD Y0, Y15; \
	SUBQ    $4, CX; \
	JLE     done; \
loop: \
	VMOVUPD (DI), Y0; \
	VMOVUPD (BX), Y1; \
	F; \
	VMOVUPD Y0, (DI); \
	ADDQ    $32, DI; \
	ADDQ    $32, BX; \
	SUBQ    $4, CX; \
	JG      loop; \
done: \
	VMOVUPD Y15, (SI); \
	VZEROUPPER; \
	RET

// INRANGE sets AX to the sign mask of the lanes of Y0 that are NaN or at
// least 708 in magnitude (an unordered not-less-than compare), using Y1.
#define INRANGE \
	VANDPD    f64Abs, Y0, Y1; \
	VCMPPD    $0x15, f64ExpLimit, Y1, Y1; \
	VMOVMSKPD Y1, AX

// ROWRANGE64 is ROW64 for expRows and sigmoidRows: it computes the last 4
// first, noting in R8 whether they are in range, then the whole groups
// from the start, and stops at the first group with a lane out of range,
// returning its index with nothing from it on stored. After the loop the
// held last 4 are stored only if in range; if not, the index returned is
// where the loop ended, and the elements from it to the end (the row's
// last 4 at most) are untouched.
//   DI row cursor   DX row start   CX elements left   SI the last 4
#define ROWRANGE64(F, loop, done, stop) \
	MOVQ    row_base+0(FP), DI; \
	MOVQ    DI, DX; \
	MOVQ    row_len+8(FP), CX; \
	LEAQ    -32(DI)(CX*8), SI; \
	VMOVUPD (SI), Y0; \
	INRANGE; \
	MOVL    AX, R8; \
	F; \
	VMOVAPD Y0, Y15; \
	SUBQ    $4, CX; \
	JLE     done; \
loop: \
	VMOVUPD (DI), Y0; \
	INRANGE; \
	TESTL   AX, AX; \
	JNZ     stop; \
	F; \
	VMOVUPD Y0, (DI); \
	ADDQ    $32, DI; \
	SUBQ    $4, CX; \
	JG      loop; \
done: \
	TESTL   R8, R8; \
	JNZ     stop; \
	VMOVUPD Y15, (SI); \
	MOVQ    row_len+8(FP), AX; \
	MOVQ    AX, ret+24(FP); \
	VZEROUPPER; \
	RET; \
stop: \
	SUBQ    DX, DI; \
	SHRQ    $3, DI; \
	MOVQ    DI, ret+24(FP); \
	VZEROUPPER; \
	RET

// func expRows(row []float64) int
TEXT ·expRows(SB), NOSPLIT, $0-32
	ROWRANGE64(EXPLANE, expRowLoop, expRowDone, expRowStop)

// func sigmoidRows(row []float64) int
TEXT ·sigmoidRows(SB), NOSPLIT, $0-32
	ROWRANGE64(SIGMOID64, sigmoidRowLoop, sigmoidRowDone, sigmoidRowStop)

// func tanhRows(row []float64)
TEXT ·tanhRows(SB), NOSPLIT, $0-24
	ROW64(TANH64, tanhRowLoop, tanhRowDone)

// func reluRows(row []float64)
TEXT ·reluRows(SB), NOSPLIT, $0-24
	ROW64(RELU64, reluRowLoop, reluRowDone)

// func leakyReluRows(row []float64, slope float64)
TEXT ·leakyReluRows(SB), NOSPLIT, $0-32
	VBROADCASTSD slope+24(FP), Y14
	ROW64(LEAKYRELU64, leakyReluRowLoop, leakyReluRowDone)

// func reluGradRows(dx, y []float64)
TEXT ·reluGradRows(SB), NOSPLIT, $0-48
	GRAD64(RELUGRAD64, reluGradLoop, reluGradDone)

// func leakyReluGradRows(dx, y []float64, slope float64)
TEXT ·leakyReluGradRows(SB), NOSPLIT, $0-56
	VBROADCASTSD slope+48(FP), Y14
	GRAD64(LEAKYRELUGRAD64, leakyReluGradLoop, leakyReluGradDone)

// ADAM computes the Adam step of the 4 elements at byte offset off: the
// new w in Y0, m1 in Y2 and m2 in Y3, from g (Y1) and the coefficients in
// Y8-Y15, with Y4 and Y5 as scratch. Each line is one operation of
// adamGo, in its order.
#define ADAM(off) \
	VMOVUPD (SI)(off*1), Y1; \
	VMULPD  (DX)(off*1), Y8, Y2; \
	VMULPD  Y9, Y1, Y4; \
	VADDPD  Y4, Y2, Y2; \
	VMULPD  (R8)(off*1), Y10, Y3; \
	VMULPD  Y11, Y1, Y4; \
	VMULPD  Y1, Y4, Y4; \
	VADDPD  Y4, Y3, Y3; \
	VDIVPD  Y12, Y2, Y4; \
	VMULPD  Y14, Y4, Y4; \
	VDIVPD  Y13, Y3, Y5; \
	VSQRTPD Y5, Y5; \
	VADDPD  Y15, Y5, Y5; \
	VDIVPD  Y5, Y4, Y4; \
	VMOVUPD (DI)(off*1), Y0; \
	VSUBPD  Y4, Y0, Y0

// func adamRows(w, grad, m1, m2 *float64, n int, c *AdamCoeffs)
// The last 4 elements' results wait in the frame until every whole group
// from the start is stored; g is set to +0 (Y6) as each group is stored.
//   DI w   SI g   DX m1   R8 m2   CX elements left
//   BX group offset in bytes      R9 the last 4's offset in bytes
//   Y8-Y15 B1, C1, B2, C2, BC1, BC2, LR, Eps
TEXT ·adamRows(SB), NOSPLIT, $96-48
	MOVQ         w+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         m1+16(FP), DX
	MOVQ         m2+24(FP), R8
	MOVQ         n+32(FP), CX
	MOVQ         c+40(FP), AX
	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 32(AX), Y12
	VBROADCASTSD 40(AX), Y13
	VBROADCASTSD 48(AX), Y14
	VBROADCASTSD 56(AX), Y15
	VXORPD       Y6, Y6, Y6
	MOVQ         CX, R9
	SHLQ         $3, R9
	SUBQ         $32, R9
	ADAM(R9)
	VMOVUPD      Y0, lw-96(SP)
	VMOVUPD      Y2, lm1-64(SP)
	VMOVUPD      Y3, lm2-32(SP)
	XORQ         BX, BX
	SUBQ         $4, CX
	JLE          adamDone

adamLoop:
	ADAM(BX)
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y2, (DX)(BX*1)
	VMOVUPD Y3, (R8)(BX*1)
	VMOVUPD Y6, (SI)(BX*1)
	ADDQ    $32, BX
	SUBQ    $4, CX
	JG      adamLoop

adamDone:
	VMOVUPD lw-96(SP), Y0
	VMOVUPD Y0, (DI)(R9*1)
	VMOVUPD lm1-64(SP), Y2
	VMOVUPD Y2, (DX)(R9*1)
	VMOVUPD lm2-32(SP), Y3
	VMOVUPD Y3, (R8)(R9*1)
	VMOVUPD Y6, (SI)(R9*1)
	VZEROUPPER
	RET
