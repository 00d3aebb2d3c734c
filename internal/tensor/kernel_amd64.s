// AVX2 and AVX-512F micro-kernels under MatMul, MatMulATB, MatMulABT
// and TanhInto. See the "Kernels" section of the package comment for
// the rule they obey: the lanes of a vector (four at 256 bits, eight at
// 512) hold independent outputs, and each lane executes the instruction
// sequence of its scalar reference. For the products that means every
// output is still accumulated over k in ascending order, and a product
// and the add that consumes it stay two instructions (VMULPD, VADDPD),
// each rounding once, exactly as the Go loops in tensor.go do: no FMA,
// no horizontal add. The tanh kernels' reference is math.Tanh, whose exp
// is assembly with FMAs in it, and they have exactly those. All loads
// and stores are unaligned-safe (VMOVUPD), and every routine ends in
// VZEROUPPER so that the SSE code gc emits around it never pays the
// AVX-SSE transition.

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

// func axpy4AVX2(d *float64, n int, b *float64, off *[4]int, coef *[4]float64)
//
// d[j] = (((d[j] + coef[0]*b[off[0]+j]) + coef[1]*b[off[1]+j]) +
// coef[2]*b[off[2]+j]) + coef[3]*b[off[3]+j] for j < n: the four adds of
// one element are a chain in Y4 (or Y5, or X4), in the order axpy4 in
// tensor.go makes them.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-40
	MOVQ         d+0(FP), DI
	MOVQ         n+8(FP), CX
	MOVQ         b+16(FP), SI
	MOVQ         off+24(FP), AX
	MOVQ         coef+32(FP), DX
	VBROADCASTSD (DX), Y0
	VBROADCASTSD 8(DX), Y1
	VBROADCASTSD 16(DX), Y2
	VBROADCASTSD 24(DX), Y3
	MOVQ         8(AX), R8
	MOVQ         16(AX), R9
	MOVQ         24(AX), R10
	MOVQ         (AX), AX
	LEAQ         (SI)(R8*8), R8   // rows off[1], off[2], off[3] of b
	LEAQ         (SI)(R9*8), R9
	LEAQ         (SI)(R10*8), R10
	LEAQ         (SI)(AX*8), SI   // row off[0]
	XORQ         AX, AX           // j
	MOVQ         CX, DX
	ANDQ         $-8, DX          // n rounded down to the 8 lanes of a step
	JEQ          axpy4_loop4

axpy4_loop8:
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VMULPD  (SI)(AX*8), Y0, Y6
	VMULPD  32(SI)(AX*8), Y0, Y7
	VMULPD  (R8)(AX*8), Y1, Y8
	VMULPD  32(R8)(AX*8), Y1, Y9
	VMULPD  (R9)(AX*8), Y2, Y10
	VMULPD  32(R9)(AX*8), Y2, Y11
	VMULPD  (R10)(AX*8), Y3, Y12
	VMULPD  32(R10)(AX*8), Y3, Y13
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VADDPD  Y10, Y4, Y4
	VADDPD  Y11, Y5, Y5
	VADDPD  Y12, Y4, Y4
	VADDPD  Y13, Y5, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     axpy4_loop8

axpy4_loop4:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JGT     axpy4_tail
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (SI)(AX*8), Y0, Y6
	VMULPD  (R8)(AX*8), Y1, Y8
	VMULPD  (R9)(AX*8), Y2, Y10
	VMULPD  (R10)(AX*8), Y3, Y12
	VADDPD  Y6, Y4, Y4
	VADDPD  Y8, Y4, Y4
	VADDPD  Y10, Y4, Y4
	VADDPD  Y12, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	MOVQ    DX, AX

axpy4_tail:
	CMPQ   AX, CX
	JGE    axpy4_done
	VMOVSD (DI)(AX*8), X4
	VMULSD (SI)(AX*8), X0, X6
	VMULSD (R8)(AX*8), X1, X8
	VMULSD (R9)(AX*8), X2, X10
	VMULSD (R10)(AX*8), X3, X12
	VADDSD X6, X4, X4
	VADDSD X8, X4, X4
	VADDSD X10, X4, X4
	VADDSD X12, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    axpy4_tail

axpy4_done:
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
// lane, in the same order, on ZMM registers. Each takes only the part of
// a row that fills whole steps of its own (the Go caller passes n16 or
// n8) and leaves the rest to the AVX2 kernel. Only AVX512F instructions
// are used, so that hasAVX512 has one bit to check.

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

// func axpy4AVX512(d *float64, n16 int, b *float64, off *[4]int, coef *[4]float64)
//
// axpy4AVX2's loop8 for j < n16, n16 a positive multiple of 16: sixteen
// elements per step in Z4 and Z5, each taking its four products in
// order.
TEXT ·axpy4AVX512(SB), NOSPLIT, $0-40
	MOVQ         d+0(FP), DI
	MOVQ         n16+8(FP), CX
	MOVQ         b+16(FP), SI
	MOVQ         off+24(FP), AX
	MOVQ         coef+32(FP), DX
	VBROADCASTSD (DX), Z0
	VBROADCASTSD 8(DX), Z1
	VBROADCASTSD 16(DX), Z2
	VBROADCASTSD 24(DX), Z3
	MOVQ         8(AX), R8
	MOVQ         16(AX), R9
	MOVQ         24(AX), R10
	MOVQ         (AX), AX
	LEAQ         (SI)(R8*8), R8
	LEAQ         (SI)(R9*8), R9
	LEAQ         (SI)(R10*8), R10
	LEAQ         (SI)(AX*8), SI
	XORQ         AX, AX

axpy4z_loop:
	VMOVUPD (DI)(AX*8), Z4
	VMOVUPD 64(DI)(AX*8), Z5
	VMULPD  (SI)(AX*8), Z0, Z6
	VMULPD  64(SI)(AX*8), Z0, Z7
	VMULPD  (R8)(AX*8), Z1, Z8
	VMULPD  64(R8)(AX*8), Z1, Z9
	VMULPD  (R9)(AX*8), Z2, Z10
	VMULPD  64(R9)(AX*8), Z2, Z11
	VMULPD  (R10)(AX*8), Z3, Z12
	VMULPD  64(R10)(AX*8), Z3, Z13
	VADDPD  Z6, Z4, Z4
	VADDPD  Z7, Z5, Z5
	VADDPD  Z8, Z4, Z4
	VADDPD  Z9, Z5, Z5
	VADDPD  Z10, Z4, Z4
	VADDPD  Z11, Z5, Z5
	VADDPD  Z12, Z4, Z4
	VADDPD  Z13, Z5, Z5
	VMOVUPD Z4, (DI)(AX*8)
	VMOVUPD Z5, 64(DI)(AX*8)
	ADDQ    $16, AX
	CMPQ    AX, CX
	JLT     axpy4z_loop
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
