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
	ANDL $0x18800000, CX // OSXSAVE, AVX and POPCNT
	CMPL CX, $0x18800000
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

// ·taken+32-k marks the first k of 32 lanes taken: 32 bytes of -1, then 32
// of 0. The filter's fold and the group fold read it.
DATA ·taken+0(SB)/8, $-1
DATA ·taken+8(SB)/8, $-1
DATA ·taken+16(SB)/8, $-1
DATA ·taken+24(SB)/8, $-1
DATA ·taken+32(SB)/8, $0
DATA ·taken+40(SB)/8, $0
DATA ·taken+48(SB)/8, $0
DATA ·taken+56(SB)/8, $0
GLOBL ·taken(SB), RODATA|NOPTR, $64
