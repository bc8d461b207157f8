//go:build !purego

#include "textflag.h"

// A leaf is 128 bytes: lo, hi and not as 32 bytes each (int8 bytes, or int16
// words for a wide leaf) at 0, 32 and 64, the column's first lane at 96 and
// the flags at 104 (1: int16 lanes, 2: the last leaf of its clause, 4: the
// first). A step
// is two halves of 32 lanes, from rows DX and R12: R sets each half's bytes
// to -1 where its lane lies outside [lo, hi] (lo in Y10).

// OUT8 sets R's bytes where the 32 int8 lanes from row idx lie outside.
#define OUT8(idx, R) \
	VMOVDQU  (AX)(idx*1), Y0; \
	VPCMPGTB 32(SI), Y0, R; \
	VPCMPGTB Y0, Y10, Y0; \
	VPOR     Y0, R, R

// OUT16 is OUT8 over int16 lanes: two compares of 16, packed to bytes.
#define OUT16(idx, R) \
	VMOVDQU   (AX)(idx*2), Y0; \
	VMOVDQU   32(AX)(idx*2), Y2; \
	VPCMPGTW  32(SI), Y0, R; \
	VPCMPGTW  Y0, Y10, Y0; \
	VPOR      Y0, R, R; \
	VPCMPGTW  32(SI), Y2, Y3; \
	VPCMPGTW  Y2, Y10, Y2; \
	VPOR      Y2, Y3, Y3; \
	VPACKSSWB Y3, R, R; \
	VPERMQ    $0xd8, R, R

// PROD adds a*b (a at BX, b at R14) over the half's lanes where P is 1.
#define PROD(idx, P) \
	VMOVDQU      (BX)(idx*1), Y2; \
	VPSIGNB      P, Y2, Y2; \
	VPMOVSXBW    X2, Y3; \
	VEXTRACTI128 $1, Y2, X2; \
	VPMOVSXBW    X2, Y2; \
	VPMOVSXBW    (R14)(idx*1), Y4; \
	VPMADDWD     Y4, Y3, Y3; \
	VPMOVSXBW    16(R14)(idx*1), Y4; \
	VPMADDWD     Y4, Y2, Y2; \
	VPADDD       Y3, Y9, Y9; \
	VPADDD       Y2, Y9, Y9

// SUMA is PROD with b all ones: pair sums of P·a, then of those (Y5).
#define SUMA(idx, P) \
	VPMADDUBSW (BX)(idx*1), P, Y2; \
	VPMADDWD   Y5, Y2, Y2; \
	VPADDD     Y2, Y9, Y9

// func filterSteps(leaves *filterLeaf, nleaves, base, n int, out *byte, a, b *int8) (count, sum int64)
TEXT ·filterSteps(SB), NOSPLIT, $0-72
	MOVQ     leaves+0(FP), R8
	MOVQ     nleaves+8(FP), R9
	SHLQ     $7, R9
	ADDQ     R8, R9          // past the last leaf
	MOVQ     base+16(FP), DX // the rows of the first half
	MOVQ     n+24(FP), CX
	ADDQ     DX, CX          // past the last row
	MOVQ     out+32(FP), DI
	SUBQ     DX, DI          // out, indexed by row
	MOVQ     a+40(FP), BX
	MOVQ     b+48(FP), R14
	LEAQ     -64(CX), R11    // the last row a whole step may start at
	XORQ     R13, R13        // 1 on the last step
	VPCMPEQB Y15, Y15, Y15
	VPABSB   Y15, Y15        // bytes of 1
	VPSRLW   $8, Y15, Y5     // words of 1
	VPXOR    Y6, Y6, Y6      // the lanes of each half a step before took
	VPXOR    Y7, Y7, Y7
	VPXOR    Y8, Y8, Y8      // the passing lanes, counted in bytes
	VPXOR    Y9, Y9, Y9      // the sum, in int32 lanes
	MOVQ     DX, AX          // the first row no step has taken
	CMPQ     DX, R11
	JG       last

step:
	LEAQ 32(DX), R12 // the rows of the second half

body:
	// Y14 and Y12: the lanes that fail some closed clause; Y13 and Y11:
	// those that fail every leaf of the open one so far.
	VPXOR Y14, Y14, Y14
	VPXOR Y12, Y12, Y12
	MOVQ  R8, SI

leaf:
	MOVQ    96(SI), AX
	MOVBLZX 104(SI), R10
	VMOVDQU (SI), Y10
	TESTL   $1, R10
	JNZ     wide
	OUT8(DX, Y1)
	OUT8(R12, Y4)
	JMP     fold

wide:
	OUT16(DX, Y1)
	OUT16(R12, Y4)

fold:
	// XOR not: the lanes the leaf fails, which its clause fails where all
	// its leaves do.
	VPXOR 64(SI), Y1, Y1
	VPXOR 64(SI), Y4, Y4
	TESTL $4, R10
	JNZ   first
	VPAND Y13, Y1, Y1
	VPAND Y11, Y4, Y4

first:
	TESTL $2, R10
	JZ    open
	VPOR  Y1, Y14, Y14
	VPOR  Y4, Y12, Y12
	JMP   next

open:
	VMOVDQA Y1, Y13
	VMOVDQA Y4, Y11

next:
	ADDQ $128, SI
	CMPQ SI, R9
	JB   leaf

	// A lane passes, as 1, where it fails no clause.
	VPANDN  Y15, Y14, Y0
	VPANDN  Y15, Y12, Y1
	CMPQ    out+32(FP), $0
	JEQ     sum
	VMOVDQU Y0, (DI)(DX*1)
	VMOVDQU Y1, (DI)(R12*1)

stepped:
	TESTQ R13, R13
	JNZ   done
	ADDQ  $64, DX
	CMPQ  DX, R11
	JLE   step
	CMPQ  DX, CX
	JGE   done
	MOVQ  DX, AX
	MOVQ  R11, DX

last:
	// The last step's halves end at the last row and start 64 rows before
	// it, or at the first row when there are fewer: over lanes the steps
	// before may have written. The fold skips those lanes (Y6, Y7): the
	// rows below AX in the first half, below M = max(AX, DX+32) in the
	// second, from ·taken at M-AX and at CX-M.
	MOVQ    $1, R13
	LEAQ    -32(CX), R12
	LEAQ    32(DX), R10
	CMPQ    AX, R10
	CMOVQGT AX, R10
	NEGQ    AX
	ADDQ    R10, AX
	LEAQ    ·taken(SB), SI
	VMOVDQU (SI)(AX*1), Y6
	NEGQ    R10
	ADDQ    CX, R10
	VMOVDQU (SI)(R10*1), Y7
	JMP     body

sum:
	// Folding, a lane passes where no step before took it too.
	VPANDN Y0, Y6, Y0
	VPANDN Y1, Y7, Y1
	VPADDB Y0, Y8, Y8
	VPADDB Y1, Y8, Y8
	TESTQ  BX, BX
	JZ     stepped
	TESTQ  R14, R14
	JZ     suma
	PROD(DX, Y0)
	PROD(R12, Y1)
	JMP    stepped

suma:
	SUMA(DX, Y0)
	SUMA(R12, Y1)
	JMP stepped

done:
	// sum: Y9's int32 lanes, sign-extended; count: Y8's bytes, summed to
	// four words (VPSADBW) and added beside them.
	VPXOR        Y0, Y0, Y0
	VPSADBW      Y0, Y8, Y8
	VPHADDD      Y8, Y9, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPHADDD      X0, X0, X0
	VMOVD        X0, AX
	MOVLQSX      AX, AX
	MOVQ         AX, sum+64(FP)
	VPEXTRD      $1, X0, AX
	MOVQ         AX, count+56(FP)
	VZEROUPPER
	RET
