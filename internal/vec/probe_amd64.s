//go:build !purego

#include "textflag.h"

// packord<> orders the dwords of two pack steps over four groups of eight
// lanes (each dword four lanes of one group) back into lane order.
DATA packord<>+0(SB)/4, $0
DATA packord<>+4(SB)/4, $4
DATA packord<>+8(SB)/4, $1
DATA packord<>+12(SB)/4, $5
DATA packord<>+16(SB)/4, $2
DATA packord<>+20(SB)/4, $6
DATA packord<>+24(SB)/4, $3
DATA packord<>+28(SB)/4, $7
GLOBL packord<>(SB), RODATA|NOPTR, $32

// BITS gathers the bitmap bits of the eight positions at off(DI)(DX*4) into
// R's dwords as 0 or 1: the word of each lane whose word index is at most
// Y15 (0 in the others), shifted right by the position's low five bits (Y14
// 31), masked to its low bit (Y13 1). Y12 keeps the largest position.
#define BITS(off, R) \
	VMOVDQU    off(DI)(DX*4), Y0; \
	VPMAXUD    Y0, Y12, Y12; \
	VPSRLD     $5, Y0, Y1; \
	VPMINUD    Y15, Y1, Y2; \
	VPCMPEQD   Y1, Y2, Y2; \
	VPXOR      R, R, R; \
	VPGATHERDD Y2, (SI)(Y1*4), R; \
	VPAND      Y14, Y0, Y0; \
	VPSRLVD    Y0, R, R; \
	VPAND      Y13, R, R

// HMAXU leaves the largest unsigned dword of Y (X its low half) in R.
#define HMAXU(Y, X, R) \
	VEXTRACTI128 $1, Y, X0; \
	VPMAXUD      X0, X, X0; \
	VPSHUFD      $0x4e, X0, X1; \
	VPMAXUD      X1, X0, X0; \
	VPSHUFD      $0xb1, X0, X1; \
	VPMAXUD      X1, X0, X0; \
	VMOVD        X0, R

// func andBits(words *uint64, lim uint32, pos *int32, cmp *byte, n int) (top uint32)
TEXT ·andBits(SB), NOSPLIT, $0-44
	MOVQ         words+0(FP), SI
	MOVL         lim+8(FP), AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15
	MOVQ         pos+16(FP), DI
	MOVQ         cmp+24(FP), R8
	MOVQ         n+32(FP), CX
	VPCMPEQD     Y14, Y14, Y14
	VPSRLD       $31, Y14, Y13 // dwords of 1
	VPSRLD       $27, Y14, Y14 // dwords of 31
	VPXOR        Y12, Y12, Y12
	VMOVDQU      packord<>(SB), Y11
	XORQ         DX, DX

step:
	BITS(0, Y3)
	BITS(32, Y4)
	BITS(64, Y5)
	BITS(96, Y6)
	VPACKUSDW Y4, Y3, Y3
	VPACKUSDW Y6, Y5, Y5
	VPACKUSWB Y5, Y3, Y3
	VPERMD    Y3, Y11, Y3
	VPAND     (R8)(DX*1), Y3, Y3
	VMOVDQU   Y3, (R8)(DX*1)
	ADDQ      $32, DX
	CMPQ      DX, CX
	JB        step

	HMAXU(Y12, X12, AX)
	MOVL AX, top+40(FP)
	VZEROUPPER
	RET

// func selectBits(words *uint64, lim uint32, pos *int32, plim uint32, sel *int32, n int) (kept int, top, topSel uint32)
TEXT ·selectBits(SB), NOSPLIT, $0-64
	MOVQ         words+0(FP), SI
	MOVL         lim+8(FP), AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15
	MOVQ         pos+16(FP), DI
	MOVL         plim+24(FP), AX
	VMOVD        AX, X9
	VPBROADCASTD X9, Y9
	MOVQ         sel+32(FP), R9
	MOVQ         n+40(FP), CX
	VPCMPEQD     Y14, Y14, Y14
	VPSRLD       $27, Y14, Y14 // dwords of 31
	VPXOR        Y12, Y12, Y12
	VPXOR        Y10, Y10, Y10
	LEAQ         ·selPos(SB), R11
	XORQ         DX, DX        // lanes read
	XORQ         R10, R10      // lanes kept

step:
	// j = sel[DX:DX+8], gathered from pos where j <= plim into p (Y1).
	VMOVDQU    (R9)(DX*4), Y0
	VPMAXUD    Y0, Y10, Y10
	VPMINUD    Y9, Y0, Y2
	VPCMPEQD   Y0, Y2, Y2
	VPXOR      Y1, Y1, Y1
	VPGATHERDD Y2, (DI)(Y0*4), Y1

	// Bit p of the words, shifted to the dword's top, read as eight bits.
	VPMAXUD    Y1, Y12, Y12
	VPSRLD     $5, Y1, Y3
	VPMINUD    Y15, Y3, Y2
	VPCMPEQD   Y3, Y2, Y2
	VPXOR      Y4, Y4, Y4
	VPGATHERDD Y2, (SI)(Y3*4), Y4
	VPANDN     Y14, Y1, Y1
	VPSLLVD    Y1, Y4, Y4
	VMOVMSKPS  Y4, AX

	// The kept lanes of j, moved to the front, stored at sel[R10]: the store
	// ends at or before lane DX+8, which this step has read.
	MOVQ    AX, BX
	SHLQ    $5, BX
	VMOVDQU (R11)(BX*1), Y5
	VPERMD  Y0, Y5, Y0
	VMOVDQU Y0, (R9)(R10*4)
	POPCNTL AX, AX
	ADDQ    AX, R10
	ADDQ    $8, DX
	CMPQ    DX, CX
	JB      step

	MOVQ R10, kept+48(FP)
	HMAXU(Y12, X12, AX)
	MOVL AX, top+56(FP)
	HMAXU(Y10, X10, AX)
	MOVL AX, topSel+60(FP)
	VZEROUPPER
	RET
