//go:build amd64

#include "textflag.h"

// func cpuHasSSSE3() bool
TEXT ·cpuHasSSSE3(SB), NOSPLIT, $0-1
	MOVL	$1, AX
	XORL	CX, CX
	CPUID
	SHRL	$9, CX	// CPUID.1:ECX bit 9 = SSSE3 (PSHUFB)
	ANDL	$1, CX
	MOVB	CX, ret+0(FP)
	RET

// func swapPSHUFB(dst, src *byte, n int, mask *byte)
//
// Shuffles n bytes (n > 0, n%16 == 0) from src to dst, 16 at a time,
// through the PSHUFB control mask.  The two-block unroll keeps a load,
// a shuffle and a store in flight per cycle on anything Skylake-class.
TEXT ·swapPSHUFB(SB), NOSPLIT, $0-32
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	n+16(FP), CX
	MOVQ	mask+24(FP), DX
	MOVOU	(DX), X2

loop32:
	CMPQ	CX, $32
	JB	loop16
	MOVOU	(SI), X0
	MOVOU	16(SI), X1
	PSHUFB	X2, X0
	PSHUFB	X2, X1
	MOVOU	X0, (DI)
	MOVOU	X1, 16(DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$32, CX
	JMP	loop32

loop16:
	CMPQ	CX, $16
	JB	done
	MOVOU	(SI), X0
	PSHUFB	X2, X0
	MOVOU	X0, (DI)
	ADDQ	$16, SI
	ADDQ	$16, DI
	SUBQ	$16, CX
	JMP	loop16

done:
	RET

// func gatherBlocks(dst, src, masks, masksB *byte, win *int32, nblk, n, ds, ss int)
//
// For each of n records (dst stride ds, src stride ss) builds nblk
// 16-byte destination blocks: block k loads 16 source bytes at
// src+win[2k] and shuffles them through masks block k; when win[2k+1]
// is not negative it also loads src+win[2k+1], shuffles that through
// masksB block k and ORs the two (every lane is zero in at least one of
// the pair).  Both loads happen before the block's store, and blocks go
// in ascending order.
TEXT ·gatherBlocks(SB), NOSPLIT, $0-72
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	masks+16(FP), DX
	MOVQ	masksB+24(FP), R9
	MOVQ	nblk+40(FP), CX
	SHLQ	$4, CX		// region bytes: 16 nblk
	MOVQ	n+48(FP), R11
	MOVQ	ds+56(FP), R12
	MOVQ	ss+64(FP), R13

rec:
	MOVQ	win+32(FP), R8
	XORQ	R10, R10	// 16k: block k's offset in the record and the masks

blk:
	MOVLQSX	0(R8), AX
	MOVLQSX	4(R8), BX
	MOVOU	(SI)(AX*1), X0
	MOVOU	(DX)(R10*1), X2
	PSHUFB	X2, X0
	TESTQ	BX, BX
	JS	store
	MOVOU	(SI)(BX*1), X1
	MOVOU	(R9)(R10*1), X3
	PSHUFB	X3, X1
	POR	X1, X0

store:
	MOVOU	X0, (DI)(R10*1)
	ADDQ	$8, R8
	ADDQ	$16, R10
	CMPQ	R10, CX
	JB	blk
	ADDQ	R12, DI
	ADDQ	R13, SI
	DECQ	R11
	JNZ	rec
	RET
