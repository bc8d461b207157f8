//go:build !purego

#include "textflag.h"

// gtail<>+r marks the first 32-r lanes of the tail block taken: 32 bytes of
// 0xff (no slot), then 32 of 0.
DATA gtail<>+0(SB)/8, $-1
DATA gtail<>+8(SB)/8, $-1
DATA gtail<>+16(SB)/8, $-1
DATA gtail<>+24(SB)/8, $-1
DATA gtail<>+32(SB)/8, $0
DATA gtail<>+40(SB)/8, $0
DATA gtail<>+48(SB)/8, $0
DATA gtail<>+56(SB)/8, $0
GLOBL gtail<>(SB), RODATA|NOPTR, $64

// SLOT computes the slot bytes of the 32 lanes at DX into Y0: k0·m0 + k1 + c
// in int16 lanes (Y8 m0, Y9 c), their unsigned maximum into Y13, packed to
// bytes in lane order, and Y11's byte where the lane's cmp byte is 0.
#define SLOT \
	VPMOVSXBW (SI)(DX*1), Y0; \
	VPMOVSXBW 16(SI)(DX*1), Y1; \
	VPMULLW   Y8, Y0, Y0; \
	VPMULLW   Y8, Y1, Y1; \
	VPMOVSXBW (DI)(DX*1), Y2; \
	VPMOVSXBW 16(DI)(DX*1), Y3; \
	VPADDW    Y2, Y0, Y0; \
	VPADDW    Y3, Y1, Y1; \
	VPADDW    Y9, Y0, Y0; \
	VPADDW    Y9, Y1, Y1; \
	VPMAXUW   Y0, Y13, Y13; \
	VPMAXUW   Y1, Y13, Y13; \
	VPACKUSWB Y1, Y0, Y0; \
	VPERMQ    $0xd8, Y0, Y0; \
	VPCMPEQB  (R8)(DX*1), Y12, Y2; \
	VPBLENDVB Y2, Y11, Y0, Y0

// func groupSlots(k0, k1 *int8, cmp *byte, n int, key *[4]int16, slots *byte) (bad bool)
TEXT ·groupSlots(SB), NOSPLIT, $0-49
	MOVQ         k0+0(FP), SI
	MOVQ         k1+8(FP), DI
	MOVQ         cmp+16(FP), R8
	MOVQ         n+24(FP), CX
	MOVQ         key+32(FP), AX
	MOVQ         slots+40(FP), R9
	VPBROADCASTW (AX), Y8
	VPBROADCASTW 2(AX), Y9
	VPBROADCASTW 4(AX), Y10
	VPBROADCASTB 6(AX), Y11
	VPXOR        Y12, Y12, Y12
	VPXOR        Y13, Y13, Y13
	XORQ         DX, DX
	MOVQ         CX, BX
	ANDQ         $-32, BX
	JMP          next

step:
	SLOT
	VMOVDQU Y0, (R9)(DX*1)
	ADDQ    $32, DX

next:
	CMPQ DX, BX
	JB   step
	MOVQ CX, R10
	ANDQ $31, R10
	JZ   done

	// The tail block: the last 32 lanes, the 32-r the loop took marked taken.
	LEAQ    -32(CX), DX
	SLOT
	LEAQ    gtail<>(SB), AX
	VPOR    (AX)(R10*1), Y0, Y0
	VMOVDQU Y0, (R9)(BX*1)

done:
	// bad: some lane's slot, unsigned, is past top (Y10).
	VPMINUW   Y10, Y13, Y0
	VPCMPEQW  Y13, Y0, Y0
	VPMOVMSKB Y0, AX
	CMPL      AX, $-1
	SETNE     bad+48(FP)
	VZEROUPPER
	RET

// FOLDS sets up a per-slot fold over CX lanes of the slot bytes at SI: BX
// the whole steps' lanes, R10 the tail step's first lane, DI the tail
// block's base less R10 (R14 zero when there is no tail), AX the first
// slot, Y15 zero. A step reads the slot bytes at R9+DX and the argument's
// lanes at DX: R9 is SI over the whole steps and DI in the tail step,
// whose block sits at SI+BX.
#define FOLDS \
	MOVQ  CX, BX; \
	ANDQ  $-32, BX; \
	LEAQ  -32(CX), R10; \
	MOVQ  CX, R14; \
	ANDQ  $31, R14; \
	LEAQ  (SI)(BX*1), DI; \
	SUBQ  R10, DI; \
	VPXOR Y15, Y15, Y15; \
	XORQ  AX, AX

// HSUMD sums Y's eight int32 lanes (X its low half) into R, sign-extended.
#define HSUMD(Y, X, R) \
	VEXTRACTI128 $1, Y, X1; \
	VPADDD       X1, X, X1; \
	VPSHUFD      $0x4e, X1, X2; \
	VPADDD       X2, X1, X1; \
	VPSHUFD      $0xb1, X1, X2; \
	VPADDD       X2, X1, X1; \
	VMOVD        X1, R; \
	MOVLQSX      R, R

// HSUMQ sums Y's four int64 lanes (X its low half) into R.
#define HSUMQ(Y, X, R) \
	VEXTRACTI128 $1, Y, X1; \
	VPADDQ       X1, X, X1; \
	VPSHUFD      $0x4e, X1, X2; \
	VPADDQ       X2, X1, X1; \
	VMOVQ        X1, R

// WIDEN adds Y's eight int32 lanes (X its low half) into Y0's four int64 lanes.
#define WIDEN(Y, X) \
	VPMOVSXDQ    X, Y1; \
	VEXTRACTI128 $1, Y, X2; \
	VPMOVSXDQ    X2, Y2; \
	VPADDQ       Y2, Y1, Y0

// PASSES runs one pass per slot AX below R11 and returns: BCAST broadcasts
// AX into Y12, INIT clears the accumulators, STEP folds 32 lanes and FOLD
// stores slot AX's results.
#define PASSES(BCAST, INIT, STEP, FOLD) \
slot: \
	VMOVD AX, X12; \
	BCAST; \
	INIT; \
	MOVQ  SI, R9; \
	XORQ  DX, DX; \
	JMP   next; \
step: \
	STEP; \
	ADDQ  $32, DX; \
next: \
	CMPQ  DX, BX; \
	JB    step; \
	TESTQ R14, R14; \
	JZ    fold; \
	MOVQ  DI, R9; \
	MOVQ  R10, DX; \
	STEP; \
fold: \
	FOLD; \
	INCQ  AX; \
	CMPQ  AX, R11; \
	JB    slot; \
	VZEROUPPER; \
	RET

#define BYTES VPBROADCASTB X12, Y12
#define DWORDS VPBROADCASTD X12, Y12

// STEPI8 counts the 32 lanes of slot Y12 at DX into Y10's bytes and adds
// their int8 values, in pairs, into Y11's int16 lanes.
#define STEPI8 \
	VPCMPEQB   (R9)(DX*1), Y12, Y0; \
	VPSUBB     Y0, Y10, Y10; \
	VPAND      Y14, Y0, Y0; \
	VPMADDUBSW (R8)(DX*1), Y0, Y0; \
	VPADDW     Y0, Y11, Y11

// CLEAR2 and CLEAR3 clear the count and the sums.
#define CLEAR2 \
	VPXOR Y10, Y10, Y10; \
	VPXOR Y11, Y11, Y11

#define CLEAR3 \
	CLEAR2; \
	VPXOR Y9, Y9, Y9

// FOLDI8 stores the count's and the int16 sums' totals.
#define FOLDI8 \
	VPSADBW  Y15, Y10, Y0; \
	HSUMQ(Y0, X0, R9); \
	MOVQ     R9, (R12)(AX*8); \
	VPMADDWD Y13, Y11, Y0; \
	HSUMD(Y0, X0, R9); \
	MOVQ     R9, (R13)(AX*8)

// func groupSumI8(slots *byte, n int, a *int8, nslots int, cnt, sum *[16]int64)
TEXT ·groupSumI8(SB), NOSPLIT, $0-48
	MOVQ slots+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ a+16(FP), R8
	MOVQ nslots+24(FP), R11
	FOLDS
	MOVQ     cnt+32(FP), R12
	MOVQ     sum+40(FP), R13
	VPCMPEQB Y14, Y14, Y14
	VPABSB   Y14, Y14      // bytes of 1
	VPCMPEQW Y13, Y13, Y13
	VPSRLW   $15, Y13, Y13 // words of 1

	PASSES(BYTES, CLEAR2, STEPI8, FOLDI8)

// STEPD counts the eight lanes of slot Y12 at DX+off into Y10's int32 lanes
// and adds their int32 values into Y11's.
#define STEPD(off, aoff) \
	VPMOVZXBD off(R9)(DX*1), Y0; \
	VPCMPEQD  Y12, Y0, Y0; \
	VPSUBD    Y0, Y10, Y10; \
	VPAND     aoff(R8)(DX*4), Y0, Y0; \
	VPADDD    Y0, Y11, Y11

#define STEPI32 \
	STEPD(0, 0); \
	STEPD(8, 32); \
	STEPD(16, 64); \
	STEPD(24, 96)

// FOLDI32 stores the count's and the int32 sums' totals.
#define FOLDI32 \
	HSUMD(Y10, X10, R9); \
	MOVQ R9, (R12)(AX*8); \
	WIDEN(Y11, X11); \
	HSUMQ(Y0, X0, R9); \
	MOVQ R9, (R13)(AX*8)

// func groupSumI32(slots *byte, n int, a *int32, nslots int, cnt, sum *[16]int64)
TEXT ·groupSumI32(SB), NOSPLIT, $0-48
	MOVQ slots+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ a+16(FP), R8
	MOVQ nslots+24(FP), R11
	FOLDS
	MOVQ cnt+32(FP), R12
	MOVQ sum+40(FP), R13

	PASSES(DWORDS, CLEAR2, STEPI32, FOLDI32)

// STEPW is STEPD adding into int64 lanes: Y11 and Y9.
#define STEPW(off, aoff) \
	VPMOVZXBD    off(R9)(DX*1), Y0; \
	VPCMPEQD     Y12, Y0, Y0; \
	VPSUBD       Y0, Y10, Y10; \
	VPAND        aoff(R8)(DX*4), Y0, Y0; \
	VPMOVSXDQ    X0, Y1; \
	VEXTRACTI128 $1, Y0, X0; \
	VPMOVSXDQ    X0, Y0; \
	VPADDQ       Y1, Y11, Y11; \
	VPADDQ       Y0, Y9, Y9

#define STEPI32W \
	STEPW(0, 0); \
	STEPW(8, 32); \
	STEPW(16, 64); \
	STEPW(24, 96)

// FOLDI32W stores the count's and the int64 sums' totals.
#define FOLDI32W \
	HSUMD(Y10, X10, R9); \
	MOVQ   R9, (R12)(AX*8); \
	VPADDQ Y9, Y11, Y0; \
	HSUMQ(Y0, X0, R9); \
	MOVQ   R9, (R13)(AX*8)

// func groupSumI32W(slots *byte, n int, a *int32, nslots int, cnt, sum *[16]int64)
TEXT ·groupSumI32W(SB), NOSPLIT, $0-48
	MOVQ slots+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ a+16(FP), R8
	MOVQ nslots+24(FP), R11
	FOLDS
	MOVQ cnt+32(FP), R12
	MOVQ sum+40(FP), R13

	PASSES(DWORDS, CLEAR3, STEPI32W, FOLDI32W)

// STEPM counts the eight lanes of slot Y12 at DX+off into Y10 and folds
// their int32 values into Y11's minima and Y9's maxima; another slot's lane
// offers the identity, Y13 (int32 max) or Y14 (int32 min).
#define STEPM(off, aoff) \
	VPMOVZXBD off(R9)(DX*1), Y0; \
	VPCMPEQD  Y12, Y0, Y0; \
	VPSUBD    Y0, Y10, Y10; \
	VMOVDQU   aoff(R8)(DX*4), Y1; \
	VPBLENDVB Y0, Y1, Y13, Y2; \
	VPMINSD   Y2, Y11, Y11; \
	VPBLENDVB Y0, Y1, Y14, Y2; \
	VPMAXSD   Y2, Y9, Y9

#define STEPMM \
	STEPM(0, 0); \
	STEPM(8, 32); \
	STEPM(16, 64); \
	STEPM(24, 96)

// HMIN and HMAX reduce Y's eight int32 lanes (X its low half) to R,
// sign-extended.
#define HMIN(Y, X, R) \
	VEXTRACTI128 $1, Y, X1; \
	VPMINSD      X1, X, X1; \
	VPSHUFD      $0x4e, X1, X2; \
	VPMINSD      X2, X1, X1; \
	VPSHUFD      $0xb1, X1, X2; \
	VPMINSD      X2, X1, X1; \
	VMOVD        X1, R; \
	MOVLQSX      R, R

#define HMAX(Y, X, R) \
	VEXTRACTI128 $1, Y, X1; \
	VPMAXSD      X1, X, X1; \
	VPSHUFD      $0x4e, X1, X2; \
	VPMAXSD      X2, X1, X1; \
	VPSHUFD      $0xb1, X1, X2; \
	VPMAXSD      X2, X1, X1; \
	VMOVD        X1, R; \
	MOVLQSX      R, R

// INITMM clears the count and starts the minima at int32's max, the maxima
// at its min; FOLDMM stores the count, the min and the max.
#define INITMM \
	VPXOR   Y10, Y10, Y10; \
	VMOVDQU Y13, Y11; \
	VMOVDQU Y14, Y9

#define FOLDMM \
	HSUMD(Y10, X10, R9); \
	MOVQ R9, (R12)(AX*8); \
	HMIN(Y11, X11, R9); \
	MOVQ R9, (R13)(AX*8); \
	HMAX(Y9, X9, R9); \
	MOVQ R9, (CX)(AX*8)

// func groupMinMaxI32(slots *byte, n int, a *int32, nslots int, cnt, mn, mx *[16]int64)
TEXT ·groupMinMaxI32(SB), NOSPLIT, $0-56
	MOVQ slots+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ a+16(FP), R8
	MOVQ nslots+24(FP), R11
	FOLDS
	MOVQ     cnt+32(FP), R12
	MOVQ     mn+40(FP), R13
	MOVQ     mx+48(FP), CX
	VPCMPEQD Y13, Y13, Y13
	VPSLLD   $31, Y13, Y14 // int32 min
	VPSRLD   $1, Y13, Y13  // int32 max

	PASSES(DWORDS, INITMM, STEPMM, FOLDMM)
