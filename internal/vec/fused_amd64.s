//go:build !purego

#include "textflag.h"

// func avx2() bool
TEXT ·avx2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE and AVX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV               // XCR0: XMM and YMM state saved
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX          // leaf 7 EBX bit 5: AVX2
	ANDL $1, BX
	MOVB BX, ret+0(FP)

no:
	RET

// tail<>+2r is the mask that fails the first 16-r lanes of a step: 16 words
// of -1, then 16 of 0.
DATA tail<>+0(SB)/8, $-1
DATA tail<>+8(SB)/8, $-1
DATA tail<>+16(SB)/8, $-1
DATA tail<>+24(SB)/8, $-1
DATA tail<>+32(SB)/8, $0
DATA tail<>+40(SB)/8, $0
DATA tail<>+48(SB)/8, $0
DATA tail<>+56(SB)/8, $0
GLOBL tail<>(SB), RODATA|NOPTR, $64

// FAIL sets Y1's words to -1 where the step's lane at DX fails either
// compare: outside [lo, hi], XOR not (Y8-Y10 for x, Y11-Y13 for y).
#define FAIL \
	VPMOVSXBW (SI)(DX*1), Y0; \
	VPCMPGTW  Y9, Y0, Y1; \
	VPCMPGTW  Y0, Y8, Y2; \
	VPOR      Y2, Y1, Y1; \
	VPXOR     Y10, Y1, Y1; \
	VPMOVSXBW (DI)(DX*1), Y0; \
	VPCMPGTW  Y12, Y0, Y2; \
	VPCMPGTW  Y0, Y11, Y3; \
	VPOR      Y3, Y2, Y2; \
	VPXOR     Y13, Y2, Y2; \
	VPOR      Y2, Y1, Y1

// FOLD counts the failed lanes into Y14 and adds a*b over the others, in
// pairs, into Y15's int32 lanes.
#define FOLD \
	VPSUBW    Y1, Y14, Y14; \
	VPMOVSXBW (R8)(DX*1), Y0; \
	VPANDN    Y0, Y1, Y0; \
	VPMOVSXBW (R9)(DX*1), Y2; \
	VPMADDWD  Y2, Y0, Y0; \
	VPADDD    Y0, Y15, Y15

// HSUM sums Y's eight int32 lanes (X its low half) into R, sign-extended.
#define HSUM(Y, X, R) \
	VEXTRACTI128 $1, Y, X0; \
	VPADDD       X0, X, X0; \
	VPSHUFD      $0x4e, X0, X1; \
	VPADDD       X1, X0, X0; \
	VPSHUFD      $0xb1, X0, X1; \
	VPADDD       X1, X0, X0; \
	VMOVD        X0, R; \
	MOVLQSX      R, R

// func fusedI8(x, y, a, b *int8, n int, k *[6]int16) (count, sum int64)
TEXT ·fusedI8(SB), NOSPLIT, $0-64
	MOVQ         x+0(FP), SI
	MOVQ         y+8(FP), DI
	MOVQ         a+16(FP), R8
	MOVQ         b+24(FP), R9
	MOVQ         n+32(FP), CX
	MOVQ         k+40(FP), AX
	VPBROADCASTW (AX), Y8
	VPBROADCASTW 2(AX), Y9
	VPBROADCASTW 4(AX), Y10
	VPBROADCASTW 6(AX), Y11
	VPBROADCASTW 8(AX), Y12
	VPBROADCASTW 10(AX), Y13
	VPXOR        Y14, Y14, Y14
	VPXOR        Y15, Y15, Y15
	XORQ         DX, DX
	MOVQ         CX, BX
	ANDQ         $-16, BX
	JMP          next

step:
	FAIL
	FOLD
	ADDQ $16, DX

next:
	CMPQ DX, BX
	JB   step
	MOVQ CX, R10
	ANDQ $15, R10
	JZ   done

	// The last step ends at lane n and fails the 16-r lanes the loop took.
	LEAQ    -16(CX), DX
	LEAQ    tail<>(SB), AX
	VMOVDQU (AX)(R10*2), Y7
	FAIL
	VPOR    Y7, Y1, Y1
	FOLD
	ADDQ    $16, CX
	SUBQ    R10, CX

done:
	// count = the lanes the steps took - the failed ones.
	VPCMPEQW Y0, Y0, Y0
	VPSRLW   $15, Y0, Y0
	VPMADDWD Y0, Y14, Y14
	HSUM(Y14, X14, AX)
	SUBQ     AX, CX
	MOVQ     CX, count+48(FP)
	HSUM(Y15, X15, AX)
	MOVQ     AX, sum+56(FP)
	VZEROUPPER
	RET
