//go:build !purego

#include "textflag.h"

// GROUP stores the selection of the eight mask bits in AL at sel[R10]: their
// lanes, selPos[AL] plus the group's first lane (Y1), all eight stored, the
// fill advanced by their count. Y1 moves on by eight lanes (Y3).
#define GROUP \
	MOVBLZX AL, BX; \
	POPCNTL BX, R8; \
	SHLQ    $5, BX; \
	VPADDD  (R11)(BX*1), Y1, Y2; \
	VMOVDQU Y2, (DI)(R10*4); \
	ADDQ    R8, R10; \
	VPADDD  Y3, Y1, Y1; \
	SHRL    $8, AX

// func selFromMask(cmp *byte, n int, sel *int32) (k int)
TEXT ·selFromMask(SB), NOSPLIT, $0-32
	MOVQ         cmp+0(FP), SI
	MOVQ         n+8(FP), CX
	MOVQ         sel+16(FP), DI
	LEAQ         ·selPos(SB), R11
	MOVL         $8, AX
	VMOVD        AX, X3
	VPBROADCASTD X3, Y3
	VPXOR        Y1, Y1, Y1
	XORQ         DX, DX        // lanes read
	XORQ         R10, R10      // lanes kept

step:
	// Bit 0 of each 0/1 byte moved to its top, the 32 read at once: each
	// group's store ends at or before its last lane, which this step has read.
	VMOVDQU   (SI)(DX*1), Y0
	VPSLLW    $7, Y0, Y0
	VPMOVMSKB Y0, AX
	GROUP
	GROUP
	GROUP
	GROUP
	ADDQ      $32, DX
	CMPQ      DX, CX
	JB        step

	MOVQ R10, k+24(FP)
	VZEROUPPER
	RET

// HMAXU leaves the largest unsigned dword of Y (X its low half) in R.
#define HMAXU(Y, X, R) \
	VEXTRACTI128 $1, Y, X0; \
	VPMAXUD      X0, X, X0; \
	VPSHUFD      $0x4e, X0, X1; \
	VPMAXUD      X1, X0, X0; \
	VPSHUFD      $0xb1, X0, X1; \
	VPMAXUD      X1, X0, X0; \
	VMOVD        X0, R

// WIDEN stores the eight int32 lanes of Y (X its low half) at out[DX] as
// int64.
#define WIDEN(Y, X) \
	VPMOVSXDQ    X, Y4; \
	VEXTRACTI128 $1, Y, X5; \
	VPMOVSXDQ    X5, Y5; \
	VMOVDQU      Y4, (R8)(DX*8); \
	VMOVDQU      Y5, 32(R8)(DX*8)

// func gatherSel(vals unsafe.Pointer, lim uint32, src *int32, slim uint32, sel *int32, n int, out unsafe.Pointer, form int) (top, topSel uint32)
TEXT ·gatherSel(SB), NOSPLIT, $0-72
	MOVQ         vals+0(FP), SI
	MOVL         lim+8(FP), AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15
	MOVQ         src+16(FP), R12
	MOVL         slim+24(FP), AX
	VMOVD        AX, X9
	VPBROADCASTD X9, Y9
	MOVQ         sel+32(FP), R9
	MOVQ         n+40(FP), CX
	MOVQ         out+48(FP), R8
	MOVQ         form+56(FP), R11
	VPCMPEQD     Y14, Y14, Y14
	VPSRLD       $31, Y14, Y13 // dwords of 1
	VPSRLD       $30, Y14, Y14 // dwords of 3
	VPXOR        Y12, Y12, Y12
	VPXOR        Y10, Y10, Y10
	XORQ         DX, DX

	// An int8 or int16 lane is read from the aligned dword that holds it,
	// which lies in the page of the lane: SI rounded down to 4 bytes, and Y8
	// SI's remainder in lanes, added to each position.
	MOVQ         SI, AX
	ANDQ         $3, AX
	ANDQ         $-4, SI
	MOVQ         R11, CX
	SHRQ         CX, AX
	MOVQ         n+40(FP), CX
	VMOVD        AX, X8
	VPBROADCASTD X8, Y8

step:
	// p (Y0): the lanes of sel, or where src is given their entries of src,
	// gathered where the lane is at most slim.
	VMOVDQU    (R9)(DX*4), Y0
	TESTQ      R12, R12
	JZ         lanes
	VPMAXUD    Y0, Y10, Y10
	VPMINUD    Y9, Y0, Y2
	VPCMPEQD   Y0, Y2, Y2
	VPXOR      Y1, Y1, Y1
	VPGATHERDD Y2, (R12)(Y0*4), Y1
	VMOVDQA    Y1, Y0

lanes:
	// Y2: the lanes whose p is at most lim, the only ones gathered.
	VPMAXUD  Y0, Y12, Y12
	VPMINUD  Y15, Y0, Y2
	VPCMPEQD Y0, Y2, Y2
	VPXOR    Y3, Y3, Y3
	CMPQ     R11, $3
	JEQ      w64
	JA       w32
	CMPQ     R11, $2
	JEQ      w32
	VPADDD   Y8, Y0, Y0
	TESTQ    R11, R11
	JNZ      w16

	// int8: byte p&3 of dword p>>2, moved to the top and shifted back down.
	VPSRLD     $2, Y0, Y1
	VPGATHERDD Y2, (SI)(Y1*4), Y3
	VPANDN     Y14, Y0, Y0
	VPSLLD     $3, Y0, Y0
	VPSLLVD    Y0, Y3, Y3
	VPSRAD     $24, Y3, Y3
	WIDEN(Y3, X3)
	JMP        next

w16:
	VPSRLD     $1, Y0, Y1
	VPGATHERDD Y2, (SI)(Y1*4), Y3
	VPANDN     Y13, Y0, Y0
	VPSLLD     $4, Y0, Y0
	VPSLLVD    Y0, Y3, Y3
	VPSRAD     $16, Y3, Y3
	WIDEN(Y3, X3)
	JMP        next

w64:
	VPMOVSXDQ    X2, Y4
	VEXTRACTI128 $1, Y2, X5
	VPMOVSXDQ    X5, Y5
	VEXTRACTI128 $1, Y0, X6
	VPXOR        Y7, Y7, Y7
	VPGATHERDQ   Y4, (SI)(X0*8), Y3
	VPGATHERDQ   Y5, (SI)(X6*8), Y7
	VMOVDQU      Y3, (R8)(DX*8)
	VMOVDQU      Y7, 32(R8)(DX*8)
	JMP          next

w32:
	// int32 values widened (form 2), or positions stored in selection order.
	VPGATHERDD Y2, (SI)(Y0*4), Y3
	CMPQ       R11, $2
	JEQ        widen
	VMOVDQU    Y3, (R8)(DX*4)
	JMP        next

widen:
	WIDEN(Y3, X3)

next:
	ADDQ $8, DX
	CMPQ DX, CX
	JB   step

	HMAXU(Y12, X12, AX)
	MOVL AX, top+64(FP)
	HMAXU(Y10, X10, AX)
	MOVL AX, topSel+68(FP)
	VZEROUPPER
	RET
