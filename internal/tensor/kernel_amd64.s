// AVX2 and AVX-512F micro-kernels under MatMul, MatMulATB, MatMulABT,
// MatMulABTPacked, Axpy, Scale, AdamStep and TanhInto. See the
// "Kernels" section of the package comment for the rule they obey: the
// lanes of a vector (four at 256 bits, eight at 512) hold independent
// outputs, and each lane executes the instruction sequence of its
// scalar reference. For the products that means every output is still
// accumulated over k in ascending order, and a product and the add
// that consumes it stay two instructions (VMULPD, VADDPD), each
// rounding once, exactly as the Go loops in tensor.go do: no FMA, no
// horizontal add. MatMul, MatMulATB and MatMulABTPacked (MatMulABT on
// a packed bᵀ) share one register-tiled kernel per width
// (sumRowsAVX2, sumRowsAVX512), which skips a coefficient equal to a
// comparand z per lane (z = 0 for the first two, NaN, which no
// coefficient equals, for the third): a VCMPPD NEQ_UQ mask, merged into
// the add at 512 bits and blended against the accumulator at 256. The
// pack is transposeAVX2/transposeAVX512, a copy through registers. The
// tanh kernels' reference is math.Tanh, whose exp is assembly with
// FMAs in it, and they have exactly those. All loads and stores are
// unaligned-safe (VMOVUPD; masked at 512 bits where a tile passes the
// end of a row, so that no lane past it is read or written), and every
// routine ends in VZEROUPPER so that the SSE code gc emits around it
// never pays the AVX-SSE transition.

#include "textflag.h"

// func hasAVX2() bool
//
// Leaf 1 ECX bits 27 (OSXSAVE) and 28 (AVX), XCR0 bits 1 and 2 (the OS
// saves XMM and YMM state), leaf 7 EBX bit 5 (AVX2).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no
	MOVB $1, ret+0(FP)
no:
	RET

// func axpyAVX2(x, y *float64, n int, alpha float64)
//
// y[j] += alpha*x[j] for j < n.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	MOVQ         x+0(FP), SI
	MOVQ         y+8(FP), DI
	MOVQ         n+16(FP), CX
	VBROADCASTSD alpha+24(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JEQ          axpy_loop4

axpy_loop8:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     axpy_loop8

axpy_loop4:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JGT     axpy_tail
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	MOVQ    DX, AX

axpy_tail:
	CMPQ   AX, CX
	JGE    axpy_done
	VMULSD (SI)(AX*8), X0, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    axpy_tail

axpy_done:
	VZEROUPPER
	RET

// ROW256 is one k-step of one row of a 4 x 8 tile at 256 bits: the
// coefficient at coef, broadcast, times the eight elements of b in Y8
// and Y9, added into acc0 and acc1 only where the coefficient is not
// the comparand z in Y15. VCMPPD $4 is NEQ_UQ, true for a NaN on either
// side, so that a NaN coefficient is added as the Go loop adds it, and
// every coefficient is added where z is NaN; each sum is blended
// against the accumulator it came from.
#define ROW256(coef, acc0, acc1) \
	VBROADCASTSD coef, Y10; \
	VCMPPD       $4, Y15, Y10, Y11; \
	VMULPD       Y8, Y10, Y12; \
	VMULPD       Y9, Y10, Y13; \
	VADDPD       Y12, acc0, Y12; \
	VADDPD       Y13, acc1, Y13; \
	VBLENDVPD    Y11, Y12, acc0, acc0; \
	VBLENDVPD    Y11, Y13, acc1, acc1

// ROW256ALL is ROW256 where z is NaN and every term is added: the same
// multiplies and adds, with no compare and no blend.
#define ROW256ALL(coef, acc0, acc1) \
	VBROADCASTSD coef, Y10; \
	VMULPD       Y8, Y10, Y12; \
	VMULPD       Y9, Y10, Y13; \
	VADDPD       Y12, acc0, acc0; \
	VADDPD       Y13, acc1, acc1

// ADD256 is one k-step of four columns of a tile one row high: the
// coefficient in Y10 times b at off(DX), added into acc.
#define ADD256(off, acc) \
	VMULPD off(DX), Y10, Y12; \
	VADDPD Y12, acc, acc

// func sumRowsAVX2(d *float64, m, n int, a *float64, rs, cs int, b *float64, k int, z float64)
//
// d[i*n+j] = Σ_p a[i*rs+p*cs]*b[p*n+j] for i < m and j < n, k > 0,
// n >= 8 and n >= 32 where m < 4: each output summed from +0 over
// ascending p, a term added only where its coefficient is not equal to
// z (z = 0 skips zero coefficients, z = NaN none).
// Four rows of d at a time, in 4 x 8 tiles whose sums stay in Y0…Y7 for
// all of k and are stored once. Where n is no multiple of 8 the last
// tile of a row ends at n, and where m is none of 4 the last four rows
// end at m: each overlaps the tile before it and stores its outputs
// again with the same bits. Rows of 32 or more go one at a time instead
// of the last four, as do all rows where m < 4, in tiles one row high
// and 32 wide (eight sums in flight), the last of a row again ending at
// n. SI and R11 walk rows 0 and 3 of a tile's coefficients (rows 1 and
// 2 are (SI)(R10*1) and (SI)(R10*2)), DX the rows of b; BX is the
// tile's column in bytes. R13 is 1 where z is NaN: the 4 x 8 tiles then
// run sum2_k4all, ROW256ALL for ROW256, since every lane is added.
TEXT ·sumRowsAVX2(SB), NOSPLIT, $0-72
	MOVQ   d+0(FP), DI
	MOVQ   m+8(FP), R14
	MOVQ   n+16(FP), R9
	MOVQ   a+24(FP), R8
	MOVQ   rs+32(FP), R10
	MOVQ   cs+40(FP), R12
	SHLQ   $3, R9             // bytes per row of d and of b
	SHLQ   $3, R10            // bytes from one row's coefficients to the next
	SHLQ         $3, R12      // bytes from one k-step's coefficient to the next
	VBROADCASTSD z+64(FP), Y15
	XORL         R13, R13
	VUCOMISD     X15, X15
	JPC          2(PC)        // z is a number: the 4 x 8 tiles mask
	INCL         R13          // z is NaN: they add every term
	CMPQ         R14, $4
	JLT          sum2_row1

sum2_rows4:
	XORQ BX, BX

sum2_cols4:
	CMPQ BX, R9
	JGE  sum2_next4
	LEAQ 64(BX), AX
	CMPQ AX, R9
	JLE  sum2_tile4
	LEAQ -64(R9), BX          // the last tile ends at n

sum2_tile4:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   R8, SI
	LEAQ   (R10)(R10*2), AX
	LEAQ   (R8)(AX*1), R11
	MOVQ   b+48(FP), DX
	ADDQ   BX, DX
	MOVQ   k+56(FP), CX
	TESTL  R13, R13
	JNE    sum2_k4all

sum2_k4:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	ROW256((SI), Y0, Y1)
	ROW256((SI)(R10*1), Y2, Y3)
	ROW256((SI)(R10*2), Y4, Y5)
	ROW256((R11), Y6, Y7)
	ADDQ    R12, SI
	ADDQ    R12, R11
	ADDQ    R9, DX
	DECQ    CX
	JNE     sum2_k4
	JMP     sum2_store4

sum2_k4all:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	ROW256ALL((SI), Y0, Y1)
	ROW256ALL((SI)(R10*1), Y2, Y3)
	ROW256ALL((SI)(R10*2), Y4, Y5)
	ROW256ALL((R11), Y6, Y7)
	ADDQ    R12, SI
	ADDQ    R12, R11
	ADDQ    R9, DX
	DECQ    CX
	JNE     sum2_k4all

sum2_store4:
	LEAQ    (DI)(BX*1), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, (AX)(R9*1)
	VMOVUPD Y3, 32(AX)(R9*1)
	LEAQ    (AX)(R9*2), AX
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, 32(AX)
	VMOVUPD Y6, (AX)(R9*1)
	VMOVUPD Y7, 32(AX)(R9*1)
	ADDQ    $64, BX
	JMP     sum2_cols4

sum2_next4:
	LEAQ  (DI)(R9*4), DI
	LEAQ  (R8)(R10*4), R8
	SUBQ  $4, R14
	CMPQ  R14, $4
	JGE   sum2_rows4
	TESTQ R14, R14
	JEQ   sum2_done
	CMPQ  R9, $256
	JGE   sum2_row1           // rows of 32 or more go on one at a time
	MOVQ  $4, AX
	SUBQ  R14, AX             // else the last four rows end at m
	MOVQ  AX, CX
	IMULQ R9, CX
	SUBQ  CX, DI
	IMULQ R10, AX
	SUBQ  AX, R8
	MOVQ  $4, R14
	JMP   sum2_rows4

sum2_row1:
	TESTQ R14, R14
	JEQ   sum2_done
	XORQ  BX, BX

sum2_cols1:
	CMPQ BX, R9
	JGE  sum2_next1
	LEAQ 256(BX), AX
	CMPQ AX, R9
	JLE  sum2_tile1
	LEAQ -256(R9), BX         // the last tile ends at n

sum2_tile1:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   R8, SI
	MOVQ   b+48(FP), DX
	ADDQ   BX, DX
	MOVQ   k+56(FP), CX

sum2_k1:
	// One coefficient per k-step: one equal to z skips the step by
	// branch, as the Go loop does, where a taller tile masks lanes.
	// VUCOMISD sets ZF for equal or unordered and PF for unordered, so
	// a NaN coefficient, or any coefficient against a NaN z, falls
	// through and is added.
	VBROADCASTSD (SI), Y10
	VUCOMISD     X15, X10
	JNE          2(PC)
	JPC          sum2_k1next
	ADD256(0, Y0)
	ADD256(32, Y1)
	ADD256(64, Y2)
	ADD256(96, Y3)
	ADD256(128, Y4)
	ADD256(160, Y5)
	ADD256(192, Y6)
	ADD256(224, Y7)

sum2_k1next:
	ADDQ R12, SI
	ADDQ R9, DX
	DECQ CX
	JNE  sum2_k1

	LEAQ    (DI)(BX*1), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VMOVUPD Y4, 128(AX)
	VMOVUPD Y5, 160(AX)
	VMOVUPD Y6, 192(AX)
	VMOVUPD Y7, 224(AX)
	ADDQ    $256, BX
	JMP     sum2_cols1

sum2_next1:
	ADDQ R9, DI
	ADDQ R10, R8
	DECQ R14
	JMP  sum2_row1

sum2_done:
	VZEROUPPER
	RET

// TRANSPOSE4 turns rows Y4..Y7 (four consecutive k of four rows of b)
// into columns Y4..Y7 (one k of those four rows each), through Y8..Y11:
// the unpacks pair rows 0, 1 and rows 2, 3 element by element
// (Y8 = r0[0] r1[0] r0[2] r1[2], Y9 the odd elements, Y10 and Y11 the
// same of r2, r3) and the permutes join matching 128-bit halves.
#define TRANSPOSE4 \
	VUNPCKLPD  Y5, Y4, Y8; \
	VUNPCKHPD  Y5, Y4, Y9; \
	VUNPCKLPD  Y7, Y6, Y10; \
	VUNPCKHPD  Y7, Y6, Y11; \
	VPERM2F128 $0x20, Y10, Y8, Y4; \
	VPERM2F128 $0x20, Y11, Y9, Y5; \
	VPERM2F128 $0x31, Y10, Y8, Y6; \
	VPERM2F128 $0x31, Y11, Y9, Y7

// func transposeAVX2(dst *float64, ldd int, src *float64, lds int, rows, cols int)
//
// dst[p*ldd+j] = src[j*lds+p] for j < rows and p < cols, both positive
// multiples of 4: the pack of b into bᵀ for MatMulABTPacked. One 4 x 4
// block per step, four rows of src loaded four elements apiece, turned by
// TRANSPOSE4 and stored as four rows of dst. The steps walk along four
// rows of dst, so that its stores run on in order (a walk down the
// rows of src instead stores to rows ldd apart, which at 256 wide fall
// in a few cache sets and run at a sixth of the speed), then on to the
// next four. A copy: no lane is computed.
TEXT ·transposeAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ lds+24(FP), R10
	MOVQ cols+40(FP), R9
	SHLQ $3, R8               // bytes per row of dst
	SHLQ $3, R10              // bytes per row of src
	LEAQ (R8)(R8*2), R13      // 3 rows of dst
	LEAQ (R10)(R10*2), BX     // 3 rows of src

tr4_cols:
	MOVQ SI, DX               // row j of src, at column p
	LEAQ (SI)(BX*1), R12      // row j+3
	MOVQ DI, AX               // row p of dst, at column j
	LEAQ (DI)(R13*1), R11     // row p+3
	MOVQ rows+32(FP), CX

tr4_block:
	VMOVUPD (DX), Y4
	VMOVUPD (DX)(R10*1), Y5
	VMOVUPD (DX)(R10*2), Y6
	VMOVUPD (R12), Y7
	TRANSPOSE4
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, (AX)(R8*1)
	VMOVUPD Y6, (AX)(R8*2)
	VMOVUPD Y7, (R11)
	LEAQ    (DX)(R10*4), DX
	LEAQ    (R12)(R10*4), R12
	ADDQ    $32, AX
	ADDQ    $32, R11
	SUBQ    $4, CX
	JNE     tr4_block

	ADDQ $32, SI              // on to column p+4 of src
	LEAQ (DI)(R8*4), DI       // and row p+4 of dst
	SUBQ $4, R9
	JNE  tr4_cols
	VZEROUPPER
	RET

// STEP is one k-step of a vector of outputs (four in a Y register,
// eight in a Z): acc += col * (the element of a at mem, broadcast),
// product and sum rounded separately.
#define STEP(mem, col, tmp, acc) \
	VBROADCASTSD mem, tmp; \
	VMULPD       col, tmp, tmp; \
	VADDPD       tmp, acc, acc

// func dot4RowsAVX2(d *float64, ldd int, a, b *float64, k, n4 int)
//
// d[r*ldd+j] = Σ_p a[r*k+p]*b[j*k+p] for r < 4 and j < n4, n4 a positive
// multiple of 4, k > 0. One 4 x 4 tile of d per pass over k: Y0..Y3 hold
// d[r][j:j+4], each starting from zero and taking its k-steps in
// ascending p.
TEXT ·dot4RowsAVX2(SB), NOSPLIT, $0-48
	MOVQ d+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), DX
	MOVQ k+32(FP), R10
	MOVQ n4+40(FP), R9
	SHLQ $3, R8               // bytes per row of d
	SHLQ $3, R10              // bytes per row of a and of b
	LEAQ (R10)(R10*2), AX
	LEAQ (SI)(AX*1), R11      // row 3 of a; rows 1, 2 are (SI)(R10*1), (SI)(R10*2)
	LEAQ (DX)(AX*1), R12      // row j+3 of b
	MOVQ AX, R13              // 3 rows of b, in bytes

dot4_tile:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   k+32(FP), CX

dot4_k4:
	CMPQ    CX, $4
	JLT     dot4_k1
	VMOVUPD (DX), Y4
	VMOVUPD (DX)(R10*1), Y5
	VMOVUPD (DX)(R10*2), Y6
	VMOVUPD (R12), Y7
	TRANSPOSE4
	STEP((SI), Y4, Y8, Y0)
	STEP((SI)(R10*1), Y4, Y9, Y1)
	STEP((SI)(R10*2), Y4, Y10, Y2)
	STEP((R11), Y4, Y11, Y3)
	STEP(8(SI), Y5, Y12, Y0)
	STEP(8(SI)(R10*1), Y5, Y13, Y1)
	STEP(8(SI)(R10*2), Y5, Y14, Y2)
	STEP(8(R11), Y5, Y8, Y3)
	STEP(16(SI), Y6, Y9, Y0)
	STEP(16(SI)(R10*1), Y6, Y10, Y1)
	STEP(16(SI)(R10*2), Y6, Y11, Y2)
	STEP(16(R11), Y6, Y12, Y3)
	STEP(24(SI), Y7, Y13, Y0)
	STEP(24(SI)(R10*1), Y7, Y14, Y1)
	STEP(24(SI)(R10*2), Y7, Y8, Y2)
	STEP(24(R11), Y7, Y9, Y3)
	ADDQ    $32, SI
	ADDQ    $32, R11
	ADDQ    $32, DX
	ADDQ    $32, R12
	SUBQ    $4, CX
	JMP     dot4_k4

dot4_k1:
	TESTQ       CX, CX
	JEQ         dot4_store
	VMOVSD      (DX), X4
	VMOVHPD     (DX)(R10*1), X4, X4
	VMOVSD      (DX)(R10*2), X5
	VMOVHPD     (R12), X5, X5
	VINSERTF128 $1, X5, Y4, Y4
	STEP((SI), Y4, Y8, Y0)
	STEP((SI)(R10*1), Y4, Y9, Y1)
	STEP((SI)(R10*2), Y4, Y10, Y2)
	STEP((R11), Y4, Y11, Y3)
	ADDQ        $8, SI
	ADDQ        $8, R11
	ADDQ        $8, DX
	ADDQ        $8, R12
	DECQ        CX
	JMP         dot4_k1

dot4_store:
	LEAQ    (DI)(R8*2), AX
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R8*1)
	VMOVUPD Y2, (AX)
	VMOVUPD Y3, (AX)(R8*1)
	ADDQ    $32, DI
	SUBQ    R10, SI           // back to the start of the four rows of a
	SUBQ    R10, R11
	ADDQ    R13, DX           // on from row j+1 to row j+4 of b
	ADDQ    R13, R12
	SUBQ    $4, R9
	JNE     dot4_tile
	VZEROUPPER
	RET

// func dot1RowAVX2(d, a, b *float64, k, n8 int)
//
// d[j] = Σ_p a[p]*b[j*k+p] for j < n8, n8 a positive multiple of 8,
// k > 0: the batch-1 form, 1 x 8 outputs per pass over k in Y0 and Y1.
TEXT ·dot1RowAVX2(SB), NOSPLIT, $0-40
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), R10
	MOVQ n8+32(FP), R9
	SHLQ $3, R10              // bytes per row of b
	LEAQ (R10)(R10*2), AX
	LEAQ (DX)(AX*1), R11      // row j+3; rows j+4, j+5 are (R11)(R10*1), (R11)(R10*2)
	LEAQ (R11)(AX*1), R12     // row j+6; row j+7 is (R12)(R10*1)
	LEAQ (R10)(AX*2), R13     // 7 rows of b, in bytes

dot1_pass:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   k+24(FP), CX

dot1_k4:
	CMPQ         CX, $4
	JLT          dot1_k1
	VBROADCASTSD (SI), Y12
	VBROADCASTSD 8(SI), Y13
	VBROADCASTSD 16(SI), Y14
	VBROADCASTSD 24(SI), Y3
	VMOVUPD      (DX), Y4
	VMOVUPD      (DX)(R10*1), Y5
	VMOVUPD      (DX)(R10*2), Y6
	VMOVUPD      (R11), Y7
	TRANSPOSE4
	VMULPD       Y4, Y12, Y4
	VMULPD       Y5, Y13, Y5
	VMULPD       Y6, Y14, Y6
	VMULPD       Y7, Y3, Y7
	VADDPD       Y4, Y0, Y0
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y0, Y0
	VADDPD       Y7, Y0, Y0
	VMOVUPD      (R11)(R10*1), Y4
	VMOVUPD      (R11)(R10*2), Y5
	VMOVUPD      (R12), Y6
	VMOVUPD      (R12)(R10*1), Y7
	TRANSPOSE4
	VMULPD       Y4, Y12, Y4
	VMULPD       Y5, Y13, Y5
	VMULPD       Y6, Y14, Y6
	VMULPD       Y7, Y3, Y7
	VADDPD       Y4, Y1, Y1
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y1, Y1
	ADDQ         $32, SI
	ADDQ         $32, DX
	ADDQ         $32, R11
	ADDQ         $32, R12
	SUBQ         $4, CX
	JMP          dot1_k4

dot1_k1:
	TESTQ        CX, CX
	JEQ          dot1_store
	VBROADCASTSD (SI), Y12
	VMOVSD       (DX), X4
	VMOVHPD      (DX)(R10*1), X4, X4
	VMOVSD       (DX)(R10*2), X5
	VMOVHPD      (R11), X5, X5
	VINSERTF128  $1, X5, Y4, Y4
	VMOVSD       (R11)(R10*1), X6
	VMOVHPD      (R11)(R10*2), X6, X6
	VMOVSD       (R12), X7
	VMOVHPD      (R12)(R10*1), X7, X7
	VINSERTF128  $1, X7, Y6, Y6
	VMULPD       Y4, Y12, Y4
	VMULPD       Y6, Y12, Y6
	VADDPD       Y4, Y0, Y0
	VADDPD       Y6, Y1, Y1
	ADDQ         $8, SI
	ADDQ         $8, DX
	ADDQ         $8, R11
	ADDQ         $8, R12
	DECQ         CX
	JMP          dot1_k1

dot1_store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, DI
	SUBQ    R10, SI           // back to a[0]
	ADDQ    R13, DX           // on from row j+1 to row j+8 of b
	ADDQ    R13, R11
	ADDQ    R13, R12
	SUBQ    $8, R9
	JNE     dot1_pass
	VZEROUPPER
	RET

// func hasFMA() bool
//
// Leaf 1 ECX bit 12. Only read where hasAVX2 has already answered yes,
// which covers OSXSAVE and the YMM state FMA needs.
TEXT ·hasFMA(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $12, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// The constants of math/tanh.go and math/exp_amd64.s, written as those
// files write them so that the assembler rounds them to the same bits,
// each four times over to be a 256-bit memory operand.
#define K4(off, v) \
	DATA tanhk<>+off+0(SB)/8, v; \
	DATA tanhk<>+off+8(SB)/8, v; \
	DATA tanhk<>+off+16(SB)/8, v; \
	DATA tanhk<>+off+24(SB)/8, v

K4(0, $0x7FFFFFFFFFFFFFFF)                                     // Abs
K4(32, $-9.64399179425052238628e-1)                            // tanhP[0]
K4(64, $-9.92877231001918586564e1)                             // tanhP[1]
K4(96, $-1.61468768441708447952e3)                             // tanhP[2]
K4(128, $1.12811678491632931402e2)                             // tanhQ[0]
K4(160, $2.23548839060100448583e3)                             // tanhQ[1]
K4(192, $4.84406305325125486048e3)                             // tanhQ[2]
K4(224, $0.625)
K4(256, $0x404601e678fc457b)                                   // 0.5*MAXLOG, folded by gc
K4(288, $90.0)                                                 // clamp on 2z, above MAXLOG
K4(320, $1.4426950408889634073599246810018920)                 // LOG2E
K4(352, $0.69314718055966295651160180568695068359375)          // LN2U
K4(384, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
K4(416, $0.0625)
K4(448, $2.4801587301587301587e-5)                             // exprodata+64
K4(480, $1.9841269841269841270e-4)                             // +56
K4(512, $1.3888888888888888889e-3)                             // +48
K4(544, $8.3333333333333333333e-3)                             // +40
K4(576, $4.1666666666666666667e-2)                             // +32
K4(608, $1.6666666666666666667e-1)                             // +24
K4(640, $0.5)                                                  // +0
K4(672, $1.0)                                                  // +8
K4(704, $2.0)                                                  // +16
K4(736, $0x3FF)                                                // exponent bias
GLOBL tanhk<>(SB), RODATA, $768

#define ABSMASK tanhk<>+0(SB)
#define P0      tanhk<>+32(SB)
#define P1      tanhk<>+64(SB)
#define P2      tanhk<>+96(SB)
#define Q0      tanhk<>+128(SB)
#define Q1      tanhk<>+160(SB)
#define Q2      tanhk<>+192(SB)
#define ARM     tanhk<>+224(SB)
#define SAT     tanhk<>+256(SB)
#define CLAMP   tanhk<>+288(SB)
#define LOG2E   tanhk<>+320(SB)
#define LN2U    tanhk<>+352(SB)
#define LN2L    tanhk<>+384(SB)
#define SIXTEENTH tanhk<>+416(SB)
#define C8      tanhk<>+448(SB)
#define C7      tanhk<>+480(SB)
#define C6      tanhk<>+512(SB)
#define C5      tanhk<>+544(SB)
#define C4      tanhk<>+576(SB)
#define C3      tanhk<>+608(SB)
#define HALF    tanhk<>+640(SB)
#define ONE     tanhk<>+672(SB)
#define TWO     tanhk<>+704(SB)
#define BIAS    tanhk<>+736(SB)

// func tanhAVX2(dst, src *float64, n4 int)
//
// dst[i] = math.Tanh(src[i]) for i < n4, n4 a positive multiple of 4;
// dst == src is allowed. Four inputs per pass, one per lane, and every
// lane goes through all three arms of the switch in math/tanh.go, each
// written with the instructions the scalar code executes for it, in its
// order; the compares at the end keep the arm the switch would have
// taken. Y0 = x, Y1 = z = |x|, Y13 = 2.0, Y14 = 1.0, Y15 = 0.0.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-24
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    n4+16(FP), CX
	XORQ    AX, AX
	VMOVUPD TWO, Y13
	VMOVUPD ONE, Y14
	VXORPD  Y15, Y15, Y15

tanh_loop:
	VMOVUPD (SI)(AX*8), Y0
	VANDPD  ABSMASK, Y0, Y1

	// default: s = x*x; x + x*s*((P0*s+P1)*s+P2)/(((s+Q0)*s+Q1)*s+Q2).
	// gc fuses none of these, so neither does this. A NaN x ends up
	// here and comes out as itself, quieted.
	VMULPD Y0, Y0, Y2
	VMULPD P0, Y2, Y3
	VADDPD P1, Y3, Y3
	VMULPD Y2, Y3, Y3
	VADDPD P2, Y3, Y3
	VADDPD Q0, Y2, Y4
	VMULPD Y2, Y4, Y4
	VADDPD Q1, Y4, Y4
	VMULPD Y2, Y4, Y4
	VADDPD Q2, Y4, Y4
	VMULPD Y2, Y0, Y5
	VMULPD Y3, Y5, Y5
	VDIVPD Y4, Y5, Y5
	VADDPD Y5, Y0, Y5

	// z >= 0.625: s = Exp(2*z), the avxfma arm of math/exp_amd64.s with
	// X0 = Y6, X1 = Y7, BX = X8. Lanes the select will discard are
	// clamped (VMINPD returns its memory operand for a NaN) so that
	// they stay finite; for the lanes kept, 2z is in [1.25, 88.03], the
	// exponent is 2…127 and none of exp's early exits can be taken.
	VADDPD       Y1, Y1, Y6
	VMINPD       CLAMP, Y6, Y6
	VMULPD       LOG2E, Y6, Y7
	VCVTPD2DQY   Y7, X8
	VCVTDQ2PD    X8, Y7
	VFNMADD231PD LN2U, Y7, Y6
	VFNMADD231PD LN2L, Y7, Y6
	VMULPD       SIXTEENTH, Y6, Y6
	VMOVUPD      C8, Y7
	VFMADD213PD  C7, Y6, Y7
	VFMADD213PD  C6, Y6, Y7
	VFMADD213PD  C5, Y6, Y7
	VFMADD213PD  C4, Y6, Y7
	VFMADD213PD  C3, Y6, Y7
	VFMADD213PD  HALF, Y6, Y7
	VFMADD213PD  Y14, Y6, Y7
	VMULPD       Y7, Y6, Y6
	VADDPD       Y13, Y6, Y7
	VMULPD       Y7, Y6, Y6
	VADDPD       Y13, Y6, Y7
	VMULPD       Y7, Y6, Y6
	VADDPD       Y13, Y6, Y7
	VMULPD       Y7, Y6, Y6
	VADDPD       Y13, Y6, Y7
	VFMADD213PD  Y14, Y7, Y6
	VPMOVSXDQ    X8, Y8                 // ldexp: (BX + 0x3FF) << 52
	VPADDQ       BIAS, Y8, Y8
	VPSLLQ       $52, Y8, Y8
	VMULPD       Y8, Y6, Y6

	// z = 1 - 2/(s+1), negated where x < 0.
	VADDPD Y14, Y6, Y6
	VDIVPD Y6, Y13, Y6
	VSUBPD Y6, Y14, Y6
	VXORPD Y1, Y0, Y9                   // the sign bit of x
	VORPD  Y9, Y6, Y6

	// The switch, last case first so that the first case wins.
	VCMPPD    $0x1D, ARM, Y1, Y10       // z >= 0.625
	VBLENDVPD Y10, Y6, Y5, Y5
	VCMPPD    $0x1E, SAT, Y1, Y10       // z > 0.5*MAXLOG: ±1
	VORPD     Y9, Y14, Y11
	VBLENDVPD Y10, Y11, Y5, Y5
	VCMPPD    $0x00, Y15, Y0, Y10       // x == 0: x, which keeps -0
	VBLENDVPD Y10, Y0, Y5, Y5

	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     tanh_loop
	VZEROUPPER
	RET

// func scaleAVX2(x *float64, n4 int, alpha float64)
//
// x[i] *= alpha for i < n4, n4 a positive multiple of 4: Scale's
// multiply, four lanes at a time.
TEXT ·scaleAVX2(SB), NOSPLIT, $0-24
	MOVQ         x+0(FP), DI
	MOVQ         n4+8(FP), CX
	VBROADCASTSD alpha+16(FP), Y0
	XORQ         AX, AX

scale_loop:
	VMULPD  (DI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     scale_loop
	VZEROUPPER
	RET

// func adamAVX2(p, grad, m, v *float64, n4 int, k *[8]float64)
//
// One Adam step on coordinates i < n4, n4 a positive multiple of 4,
// each lane the operations of AdamStep's Go loop in its order, k holding
// its coefficients β₁, 1-β₁, β₂, 1-β₂, c₁, c₂, lr and ε:
//
//	m = β₁·m + (1-β₁)·g
//	v = β₂·v + ((1-β₂)·g)·g
//	p = p - (lr·(m/c₁)) / (√(v/c₂) + ε)
//
// VDIVPD and VSQRTPD round as DIVSD and SQRTSD do.
TEXT ·adamAVX2(SB), NOSPLIT, $0-48
	MOVQ         p+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         m+16(FP), R8
	MOVQ         v+24(FP), R9
	MOVQ         n4+32(FP), CX
	MOVQ         k+40(FP), DX
	VBROADCASTSD 0(DX), Y0
	VBROADCASTSD 8(DX), Y1
	VBROADCASTSD 16(DX), Y2
	VBROADCASTSD 24(DX), Y3
	VBROADCASTSD 32(DX), Y4
	VBROADCASTSD 40(DX), Y5
	VBROADCASTSD 48(DX), Y6
	VBROADCASTSD 56(DX), Y7
	XORQ         AX, AX

adam_loop:
	VMOVUPD (SI)(AX*8), Y8
	VMULPD  (R8)(AX*8), Y0, Y9
	VMULPD  Y8, Y1, Y10
	VADDPD  Y10, Y9, Y9
	VMOVUPD Y9, (R8)(AX*8)
	VMULPD  (R9)(AX*8), Y2, Y10
	VMULPD  Y8, Y3, Y11
	VMULPD  Y8, Y11, Y11
	VADDPD  Y11, Y10, Y10
	VMOVUPD Y10, (R9)(AX*8)
	VDIVPD  Y4, Y9, Y9
	VDIVPD  Y5, Y10, Y10
	VSQRTPD Y10, Y10
	VADDPD  Y7, Y10, Y10
	VMULPD  Y9, Y6, Y9
	VDIVPD  Y10, Y9, Y9
	VMOVUPD (DI)(AX*8), Y11
	VSUBPD  Y9, Y11, Y11
	VMOVUPD Y11, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     adam_loop
	VZEROUPPER
	RET

// The AVX-512F kernels below run the kernel above of the same name,
// eight lanes at a time in place of four: the same instructions per
// lane, in the same order, on ZMM registers. Each but sumRowsAVX512
// takes only the part of a row that fills whole steps of its own (the
// Go caller passes n16 or n8) and leaves the rest to the AVX2 kernel;
// sumRowsAVX512 masks its last columns and takes the whole product.
// Only AVX512F instructions are used, so that hasAVX512 has one bit to
// check.

// func hasAVX512() bool
//
// Leaf 7 EBX bit 16 (AVX512F), and XCR0 bits 5, 6 and 7 (the OS saves
// the opmask registers, the upper halves of ZMM0-15 and ZMM16-31) beside
// bits 1 and 2. Only read where hasAVX2 has already answered yes, which
// covers OSXSAVE.
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX
	JCC  no512
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no512
	MOVB $1, ret+0(FP)
no512:
	RET

// func axpyAVX512(x, y *float64, n16 int, alpha float64)
//
// axpyAVX2's loop8 for j < n16, n16 a positive multiple of 16: sixteen
// elements per step in Z1 and Z2.
TEXT ·axpyAVX512(SB), NOSPLIT, $0-32
	MOVQ         x+0(FP), SI
	MOVQ         y+8(FP), DI
	MOVQ         n16+16(FP), CX
	VBROADCASTSD alpha+24(FP), Z0
	XORQ         AX, AX

axpyz_loop:
	VMULPD  (SI)(AX*8), Z0, Z1
	VMULPD  64(SI)(AX*8), Z0, Z2
	VADDPD  (DI)(AX*8), Z1, Z1
	VADDPD  64(DI)(AX*8), Z2, Z2
	VMOVUPD Z1, (DI)(AX*8)
	VMOVUPD Z2, 64(DI)(AX*8)
	ADDQ    $16, AX
	CMPQ    AX, CX
	JLT     axpyz_loop
	VZEROUPPER
	RET

// ROW512 is ROW256 at 512 bits, for a 4 x 16 tile with b in Z8 and
// Z9: the compare writes its lanes to the mask register kreg, and the
// adds merge under it, so that a lane whose coefficient equals the
// comparand z in Z31 keeps its accumulator. ROW512W is the same for a 4 x 32 tile,
// b in Z16…Z19.
#define ROW512(coef, kreg, acc0, acc1) \
	VBROADCASTSD coef, Z10; \
	VCMPPD       $4, Z31, Z10, kreg; \
	VMULPD       Z8, Z10, Z12; \
	VMULPD       Z9, Z10, Z13; \
	VADDPD       Z12, acc0, kreg, acc0; \
	VADDPD       Z13, acc1, kreg, acc1

#define ROW512W(coef, kreg, acc0, acc1, acc2, acc3) \
	VBROADCASTSD coef, Z20; \
	VCMPPD       $4, Z31, Z20, kreg; \
	VMULPD       Z16, Z20, Z21; \
	VMULPD       Z17, Z20, Z22; \
	VMULPD       Z18, Z20, Z23; \
	VMULPD       Z19, Z20, Z24; \
	VADDPD       Z21, acc0, kreg, acc0; \
	VADDPD       Z22, acc1, kreg, acc1; \
	VADDPD       Z23, acc2, kreg, acc2; \
	VADDPD       Z24, acc3, kreg, acc3

// ROW512ALL and ROW512WALL are ROW512 and ROW512W where z is NaN and
// every term is added: the same multiplies and adds, with no compare
// and no merge mask.
#define ROW512ALL(coef, acc0, acc1) \
	VBROADCASTSD coef, Z10; \
	VMULPD       Z8, Z10, Z12; \
	VMULPD       Z9, Z10, Z13; \
	VADDPD       Z12, acc0, acc0; \
	VADDPD       Z13, acc1, acc1

#define ROW512WALL(coef, acc0, acc1, acc2, acc3) \
	VBROADCASTSD coef, Z20; \
	VMULPD       Z16, Z20, Z21; \
	VMULPD       Z17, Z20, Z22; \
	VMULPD       Z18, Z20, Z23; \
	VMULPD       Z19, Z20, Z24; \
	VADDPD       Z21, acc0, acc0; \
	VADDPD       Z22, acc1, acc1; \
	VADDPD       Z23, acc2, acc2; \
	VADDPD       Z24, acc3, acc3

// COLMASK512 sets K5 and K6 to the lanes of a 16-column tile at column
// byte offset BX that lie inside a row of n (R9 bytes): all sixteen but
// in the last tile of a row whose n is no multiple of 16.
#define COLMASK512 \
	MOVQ    R9, CX; \
	SUBQ    BX, CX; \
	SHRQ    $3, CX; \
	MOVL    $16, AX; \
	CMPQ    CX, AX; \
	CMOVQGT AX, CX; \
	MOVL    $1, AX; \
	SHLL    CX, AX; \
	DECL    AX; \
	KMOVW   AX, K5; \
	SHRL    $8, AX; \
	KMOVW   AX, K6

// func sumRowsAVX512(d *float64, m, n int, a *float64, rs, cs int, b *float64, k int, z float64)
//
// sumRowsAVX2 at 512 bits, for every n > 0: four rows of d at a time in
// 4 x 32 tiles, the sums in Z0…Z15, then 4 x 16 tiles (Z0…Z7) for the
// n mod 32 columns left, which load b under the column masks K5 and
// K6, zeroing the lanes past n and reading none of their memory, and
// store under them. Where m is no multiple of 4 the last four rows end
// at m, as in sumRowsAVX2; fewer than four rows go one at a time in
// tiles one row high and 16 wide, under the same column masks. The
// row masks are K1, K2, K3 and K7 (K4 is a macro of this file). R13 is
// 1 where z is NaN: every k-loop then runs its ALL form, which neither
// compares nor masks, since every lane is added.
TEXT ·sumRowsAVX512(SB), NOSPLIT, $0-72
	MOVQ   d+0(FP), DI
	MOVQ   m+8(FP), R14
	MOVQ   n+16(FP), R9
	MOVQ   a+24(FP), R8
	MOVQ   rs+32(FP), R10
	MOVQ   cs+40(FP), R12
	SHLQ   $3, R9
	SHLQ   $3, R10
	SHLQ         $3, R12
	VBROADCASTSD z+64(FP), Z31
	XORL         R13, R13
	VUCOMISD     X31, X31
	JPC          2(PC)
	INCL         R13
	CMPQ         R14, $4
	JLT          sumz_row1

sumz_rows4:
	XORQ BX, BX

sumz_wide4:
	LEAQ   256(BX), AX
	CMPQ   AX, R9
	JGT    sumz_tile4
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	MOVQ   R8, SI
	LEAQ   (R10)(R10*2), AX
	LEAQ   (R8)(AX*1), R11
	MOVQ   b+48(FP), DX
	ADDQ   BX, DX
	MOVQ   k+56(FP), CX
	TESTL  R13, R13
	JNE    sumz_kw4all

sumz_kw4:
	VMOVUPD (DX), Z16
	VMOVUPD 64(DX), Z17
	VMOVUPD 128(DX), Z18
	VMOVUPD 192(DX), Z19
	ROW512W((SI), K1, Z0, Z1, Z2, Z3)
	ROW512W((SI)(R10*1), K2, Z4, Z5, Z6, Z7)
	ROW512W((SI)(R10*2), K3, Z8, Z9, Z10, Z11)
	ROW512W((R11), K7, Z12, Z13, Z14, Z15)
	ADDQ    R12, SI
	ADDQ    R12, R11
	ADDQ    R9, DX
	DECQ    CX
	JNE     sumz_kw4
	JMP     sumz_storew4

sumz_kw4all:
	VMOVUPD (DX), Z16
	VMOVUPD 64(DX), Z17
	VMOVUPD 128(DX), Z18
	VMOVUPD 192(DX), Z19
	ROW512WALL((SI), Z0, Z1, Z2, Z3)
	ROW512WALL((SI)(R10*1), Z4, Z5, Z6, Z7)
	ROW512WALL((SI)(R10*2), Z8, Z9, Z10, Z11)
	ROW512WALL((R11), Z12, Z13, Z14, Z15)
	ADDQ    R12, SI
	ADDQ    R12, R11
	ADDQ    R9, DX
	DECQ    CX
	JNE     sumz_kw4all

sumz_storew4:
	LEAQ    (DI)(BX*1), AX
	VMOVUPD Z0, (AX)
	VMOVUPD Z1, 64(AX)
	VMOVUPD Z2, 128(AX)
	VMOVUPD Z3, 192(AX)
	VMOVUPD Z4, (AX)(R9*1)
	VMOVUPD Z5, 64(AX)(R9*1)
	VMOVUPD Z6, 128(AX)(R9*1)
	VMOVUPD Z7, 192(AX)(R9*1)
	LEAQ    (AX)(R9*2), AX
	VMOVUPD Z8, (AX)
	VMOVUPD Z9, 64(AX)
	VMOVUPD Z10, 128(AX)
	VMOVUPD Z11, 192(AX)
	VMOVUPD Z12, (AX)(R9*1)
	VMOVUPD Z13, 64(AX)(R9*1)
	VMOVUPD Z14, 128(AX)(R9*1)
	VMOVUPD Z15, 192(AX)(R9*1)
	ADDQ    $256, BX
	JMP     sumz_wide4

sumz_tile4:
	CMPQ   BX, R9
	JGE    sumz_next4
	COLMASK512
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ   R8, SI
	LEAQ   (R10)(R10*2), AX
	LEAQ   (R8)(AX*1), R11
	MOVQ   b+48(FP), DX
	ADDQ   BX, DX
	MOVQ   k+56(FP), CX
	TESTL  R13, R13
	JNE    sumz_k4all

sumz_k4:
	VMOVUPD.Z (DX), K5, Z8
	VMOVUPD.Z 64(DX), K6, Z9
	ROW512((SI), K1, Z0, Z1)
	ROW512((SI)(R10*1), K2, Z2, Z3)
	ROW512((SI)(R10*2), K3, Z4, Z5)
	ROW512((R11), K7, Z6, Z7)
	ADDQ      R12, SI
	ADDQ      R12, R11
	ADDQ      R9, DX
	DECQ      CX
	JNE       sumz_k4
	JMP       sumz_store4

sumz_k4all:
	VMOVUPD.Z (DX), K5, Z8
	VMOVUPD.Z 64(DX), K6, Z9
	ROW512ALL((SI), Z0, Z1)
	ROW512ALL((SI)(R10*1), Z2, Z3)
	ROW512ALL((SI)(R10*2), Z4, Z5)
	ROW512ALL((R11), Z6, Z7)
	ADDQ      R12, SI
	ADDQ      R12, R11
	ADDQ      R9, DX
	DECQ      CX
	JNE       sumz_k4all

sumz_store4:
	LEAQ    (DI)(BX*1), AX
	VMOVUPD Z0, K5, (AX)
	VMOVUPD Z1, K6, 64(AX)
	VMOVUPD Z2, K5, (AX)(R9*1)
	VMOVUPD Z3, K6, 64(AX)(R9*1)
	LEAQ    (AX)(R9*2), AX
	VMOVUPD Z4, K5, (AX)
	VMOVUPD Z5, K6, 64(AX)
	VMOVUPD Z6, K5, (AX)(R9*1)
	VMOVUPD Z7, K6, 64(AX)(R9*1)
	ADDQ    $128, BX
	JMP     sumz_tile4

sumz_next4:
	LEAQ    (DI)(R9*4), DI
	LEAQ    (R8)(R10*4), R8
	SUBQ    $4, R14
	CMPQ    R14, $4
	JGE     sumz_rows4
	TESTQ   R14, R14
	JEQ     sumz_done
	MOVQ    $4, AX
	SUBQ    R14, AX
	MOVQ    AX, CX
	IMULQ   R9, CX
	SUBQ    CX, DI
	IMULQ   R10, AX
	SUBQ    AX, R8
	MOVQ    $4, R14
	JMP     sumz_rows4

sumz_row1:
	TESTQ R14, R14
	JEQ   sumz_done
	XORQ  BX, BX

sumz_cols1:
	CMPQ   BX, R9
	JGE    sumz_next1
	COLMASK512
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	MOVQ   R8, SI
	MOVQ   b+48(FP), DX
	ADDQ   BX, DX
	MOVQ   k+56(FP), CX
	TESTL  R13, R13
	JNE    sumz_k1all

sumz_k1:
	VMOVUPD.Z (DX), K5, Z8
	VMOVUPD.Z 64(DX), K6, Z9
	ROW512((SI), K1, Z0, Z1)
	ADDQ      R12, SI
	ADDQ      R9, DX
	DECQ      CX
	JNE       sumz_k1
	JMP       sumz_store1

sumz_k1all:
	VMOVUPD.Z (DX), K5, Z8
	VMOVUPD.Z 64(DX), K6, Z9
	ROW512ALL((SI), Z0, Z1)
	ADDQ      R12, SI
	ADDQ      R9, DX
	DECQ      CX
	JNE       sumz_k1all

sumz_store1:

	VMOVUPD Z0, K5, (DI)(BX*1)
	VMOVUPD Z1, K6, 64(DI)(BX*1)
	ADDQ    $128, BX
	JMP     sumz_cols1

sumz_next1:
	ADDQ R9, DI
	ADDQ R10, R8
	DECQ R14
	JMP  sumz_row1

sumz_done:
	VZEROUPPER
	RET

// TRANSPOSE8 is TRANSPOSE4 for eight rows of b, r0…r7, loaded four k
// apiece as Z4 = r0|r2, Z5 = r1|r3, Z6 = r4|r6, Z7 = r5|r7 (low|high
// 256 bits). The unpacks interleave within 128-bit lanes, as in
// TRANSPOSE4 (Z8 = r0[0] r1[0] | r0[2] r1[2] | r2[0] r3[0] | r2[2] r3[2],
// Z9 the odd elements, Z10 and Z11 the same of r4…r7), and VSHUFF64X2
// gathers the lanes of one k: Z4…Z7 come out as the columns k+0…k+3,
// each r0…r7 in lane order.
#define TRANSPOSE8 \
	VUNPCKLPD  Z5, Z4, Z8; \
	VUNPCKHPD  Z5, Z4, Z9; \
	VUNPCKLPD  Z7, Z6, Z10; \
	VUNPCKHPD  Z7, Z6, Z11; \
	VSHUFF64X2 $0x88, Z10, Z8, Z4; \
	VSHUFF64X2 $0x88, Z11, Z9, Z5; \
	VSHUFF64X2 $0xDD, Z10, Z8, Z6; \
	VSHUFF64X2 $0xDD, Z11, Z9, Z7

// func transposeAVX512(dst *float64, ldd int, src *float64, lds int, rows, cols int)
//
// transposeAVX2 in 8 x 4 blocks, rows a positive multiple of 8: eight
// rows of src loaded as TRANSPOSE8 takes them, and each of the four
// rows of dst it gives stored whole, eight elements in one Z. Rows
// j…j+7 of src are (DX), (DX)(R10*1), (DX)(R10*2), then the same from
// R12 (row j+3) and R14 (row j+6).
TEXT ·transposeAVX512(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ lds+24(FP), R10
	MOVQ cols+40(FP), R9
	SHLQ $3, R8               // bytes per row of dst
	SHLQ $3, R10              // bytes per row of src
	LEAQ (R8)(R8*2), R13      // 3 rows of dst
	LEAQ (R10)(R10*2), BX     // 3 rows of src

tr8_cols:
	MOVQ SI, DX               // row j of src, at column p
	LEAQ (SI)(BX*1), R12      // row j+3
	LEAQ (R12)(BX*1), R14     // row j+6
	MOVQ DI, AX               // row p of dst, at column j
	LEAQ (DI)(R13*1), R11     // row p+3
	MOVQ rows+32(FP), CX

tr8_block:
	VMOVUPD      (DX), Y4                 // rows j and j+2, columns p…p+3
	VINSERTF64X4 $1, (DX)(R10*2), Z4, Z4
	VMOVUPD      (DX)(R10*1), Y5          // j+1 and j+3
	VINSERTF64X4 $1, (R12), Z5, Z5
	VMOVUPD      (R12)(R10*1), Y6         // j+4 and j+6
	VINSERTF64X4 $1, (R14), Z6, Z6
	VMOVUPD      (R12)(R10*2), Y7         // j+5 and j+7
	VINSERTF64X4 $1, (R14)(R10*1), Z7, Z7
	TRANSPOSE8
	VMOVUPD      Z4, (AX)
	VMOVUPD      Z5, (AX)(R8*1)
	VMOVUPD      Z6, (AX)(R8*2)
	VMOVUPD      Z7, (R11)
	VMOVUPD      32(DX), Y4               // the same rows, columns p+4…p+7
	VINSERTF64X4 $1, 32(DX)(R10*2), Z4, Z4
	VMOVUPD      32(DX)(R10*1), Y5
	VINSERTF64X4 $1, 32(R12), Z5, Z5
	VMOVUPD      32(R12)(R10*1), Y6
	VINSERTF64X4 $1, 32(R14), Z6, Z6
	VMOVUPD      32(R12)(R10*2), Y7
	VINSERTF64X4 $1, 32(R14)(R10*1), Z7, Z7
	TRANSPOSE8
	VMOVUPD      Z4, (AX)(R8*4)           // rows p+4…p+7 of dst
	VMOVUPD      Z5, (R11)(R8*2)
	VMOVUPD      Z6, (R11)(R13*1)
	VMOVUPD      Z7, (R11)(R8*4)
	LEAQ         (DX)(R10*8), DX
	LEAQ         (R12)(R10*8), R12
	LEAQ         (R14)(R10*8), R14
	ADDQ         $64, AX
	ADDQ         $64, R11
	SUBQ         $8, CX
	JNE          tr8_block

	ADDQ $64, SI              // on to column p+8 of src
	LEAQ (DI)(R8*8), DI       // and row p+8 of dst
	SUBQ $8, R9
	JNE  tr8_cols
	VZEROUPPER
	RET

// func dot4RowsAVX512(d *float64, ldd int, a, b *float64, k, n8 int)
//
// dot4RowsAVX2 in 4 x 8 tiles, n8 a positive multiple of 8: Z0…Z3 hold
// d[r][j:j+8], each from zero and over ascending p. Rows j…j+7 of b are
// (DX), (DX)(R10*1), (DX)(R10*2), then the same from R12 (row j+3) and
// R14 (row j+6).
TEXT ·dot4RowsAVX512(SB), NOSPLIT, $0-48
	MOVQ d+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), DX
	MOVQ k+32(FP), R10
	MOVQ n8+40(FP), R9
	SHLQ $3, R8               // bytes per row of d
	SHLQ $3, R10              // bytes per row of a and of b
	LEAQ (R10)(R10*2), AX     // 3 rows
	LEAQ (SI)(AX*1), R11      // row 3 of a
	LEAQ (DX)(AX*1), R12      // row j+3 of b
	LEAQ (R12)(AX*1), R14     // row j+6 of b
	LEAQ (R10)(AX*2), R13     // 7 rows of b, in bytes

dot4z_tile:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ   k+32(FP), CX

dot4z_k4:
	CMPQ         CX, $4
	JLT          dot4z_k1
	VMOVUPD      (DX), Y4                 // rows j and j+2
	VINSERTF64X4 $1, (DX)(R10*2), Z4, Z4
	VMOVUPD      (DX)(R10*1), Y5          // j+1 and j+3
	VINSERTF64X4 $1, (R12), Z5, Z5
	VMOVUPD      (R12)(R10*1), Y6         // j+4 and j+6
	VINSERTF64X4 $1, (R14), Z6, Z6
	VMOVUPD      (R12)(R10*2), Y7         // j+5 and j+7
	VINSERTF64X4 $1, (R14)(R10*1), Z7, Z7
	TRANSPOSE8
	STEP((SI), Z4, Z16, Z0)
	STEP((SI)(R10*1), Z4, Z17, Z1)
	STEP((SI)(R10*2), Z4, Z18, Z2)
	STEP((R11), Z4, Z19, Z3)
	STEP(8(SI), Z5, Z20, Z0)
	STEP(8(SI)(R10*1), Z5, Z21, Z1)
	STEP(8(SI)(R10*2), Z5, Z22, Z2)
	STEP(8(R11), Z5, Z23, Z3)
	STEP(16(SI), Z6, Z24, Z0)
	STEP(16(SI)(R10*1), Z6, Z25, Z1)
	STEP(16(SI)(R10*2), Z6, Z26, Z2)
	STEP(16(R11), Z6, Z27, Z3)
	STEP(24(SI), Z7, Z28, Z0)
	STEP(24(SI)(R10*1), Z7, Z29, Z1)
	STEP(24(SI)(R10*2), Z7, Z30, Z2)
	STEP(24(R11), Z7, Z31, Z3)
	ADDQ         $32, SI
	ADDQ         $32, R11
	ADDQ         $32, DX
	ADDQ         $32, R12
	ADDQ         $32, R14
	SUBQ         $4, CX
	JMP          dot4z_k4

dot4z_k1:
	TESTQ        CX, CX
	JEQ          dot4z_store
	VMOVSD       (DX), X4                 // one k of rows j…j+7, in lane order
	VMOVHPD      (DX)(R10*1), X4, X4
	VMOVSD       (DX)(R10*2), X5
	VMOVHPD      (R12), X5, X5
	VINSERTF128  $1, X5, Y4, Y4
	VMOVSD       (R12)(R10*1), X6
	VMOVHPD      (R12)(R10*2), X6, X6
	VMOVSD       (R14), X7
	VMOVHPD      (R14)(R10*1), X7, X7
	VINSERTF128  $1, X7, Y6, Y6
	VINSERTF64X4 $1, Y6, Z4, Z4
	STEP((SI), Z4, Z16, Z0)
	STEP((SI)(R10*1), Z4, Z17, Z1)
	STEP((SI)(R10*2), Z4, Z18, Z2)
	STEP((R11), Z4, Z19, Z3)
	ADDQ         $8, SI
	ADDQ         $8, R11
	ADDQ         $8, DX
	ADDQ         $8, R12
	ADDQ         $8, R14
	DECQ         CX
	JMP          dot4z_k1

dot4z_store:
	LEAQ    (DI)(R8*2), AX
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, (DI)(R8*1)
	VMOVUPD Z2, (AX)
	VMOVUPD Z3, (AX)(R8*1)
	ADDQ    $64, DI
	SUBQ    R10, SI           // back to the start of the four rows of a
	SUBQ    R10, R11
	ADDQ    R13, DX           // on from row j+1 to row j+8 of b
	ADDQ    R13, R12
	ADDQ    R13, R14
	SUBQ    $8, R9
	JNE     dot4z_tile
	VZEROUPPER
	RET

// func tanhAVX512(dst, src *float64, n8 int)
//
// tanhAVX2 on eight inputs per pass, n8 a positive multiple of 8, with
// the same instructions per lane on the same constants (broadcast from
// their first element), Z for Y. The selects are merges under compare
// masks where tanhAVX2 blends under compare vectors, and the bit
// operations are the integer forms (VPANDQ, VPXORQ, VPORQ), which are
// the AVX512F ones and give the same bits. Z0 = x, Z1 = z = |x|,
// Z13 = 2.0, Z14 = 1.0, Z15 = 0.0.
TEXT ·tanhAVX512(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n8+16(FP), CX
	XORQ         AX, AX
	VBROADCASTSD TWO, Z13
	VBROADCASTSD ONE, Z14
	VPXORQ       Z15, Z15, Z15

tanhz_loop:
	VMOVUPD     (SI)(AX*8), Z0
	VPANDQ.BCST ABSMASK, Z0, Z1

	// default: the rational approximation.
	VMULPD      Z0, Z0, Z2
	VMULPD.BCST P0, Z2, Z3
	VADDPD.BCST P1, Z3, Z3
	VMULPD      Z2, Z3, Z3
	VADDPD.BCST P2, Z3, Z3
	VADDPD.BCST Q0, Z2, Z4
	VMULPD      Z2, Z4, Z4
	VADDPD.BCST Q1, Z4, Z4
	VMULPD      Z2, Z4, Z4
	VADDPD.BCST Q2, Z4, Z4
	VMULPD      Z2, Z0, Z5
	VMULPD      Z3, Z5, Z5
	VDIVPD      Z4, Z5, Z5
	VADDPD      Z5, Z0, Z5

	// z >= 0.625: s = Exp(2*z), clamped as in tanhAVX2.
	VADDPD            Z1, Z1, Z6
	VMINPD.BCST       CLAMP, Z6, Z6
	VMULPD.BCST       LOG2E, Z6, Z7
	VCVTPD2DQ         Z7, Y8
	VCVTDQ2PD         Y8, Z7
	VFNMADD231PD.BCST LN2U, Z7, Z6
	VFNMADD231PD.BCST LN2L, Z7, Z6
	VMULPD.BCST       SIXTEENTH, Z6, Z6
	VBROADCASTSD      C8, Z7
	VFMADD213PD.BCST  C7, Z6, Z7
	VFMADD213PD.BCST  C6, Z6, Z7
	VFMADD213PD.BCST  C5, Z6, Z7
	VFMADD213PD.BCST  C4, Z6, Z7
	VFMADD213PD.BCST  C3, Z6, Z7
	VFMADD213PD.BCST  HALF, Z6, Z7
	VFMADD213PD       Z14, Z6, Z7
	VMULPD            Z7, Z6, Z6
	VADDPD            Z13, Z6, Z7
	VMULPD            Z7, Z6, Z6
	VADDPD            Z13, Z6, Z7
	VMULPD            Z7, Z6, Z6
	VADDPD            Z13, Z6, Z7
	VMULPD            Z7, Z6, Z6
	VADDPD            Z13, Z6, Z7
	VFMADD213PD       Z14, Z7, Z6
	VPMOVSXDQ         Y8, Z8
	VPADDQ.BCST       BIAS, Z8, Z8
	VPSLLQ            $52, Z8, Z8
	VMULPD            Z8, Z6, Z6

	// z = 1 - 2/(s+1), negated where x < 0.
	VADDPD Z14, Z6, Z6
	VDIVPD Z6, Z13, Z6
	VSUBPD Z6, Z14, Z6
	VPXORQ Z1, Z0, Z9
	VPORQ  Z9, Z6, Z6

	// The switch, last case first so that the first case wins.
	VCMPPD.BCST $0x1D, ARM, Z1, K1  // z >= 0.625
	VMOVAPD     Z6, K1, Z5
	VCMPPD.BCST $0x1E, SAT, Z1, K2  // z > 0.5*MAXLOG: ±1
	VPORQ       Z9, Z14, Z11
	VMOVAPD     Z11, K2, Z5
	VCMPPD      $0x00, Z15, Z0, K3  // x == 0: x, which keeps -0
	VMOVAPD     Z0, K3, Z5

	VMOVUPD Z5, (DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     tanhz_loop
	VZEROUPPER
	RET
