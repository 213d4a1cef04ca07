#include "textflag.h"

// The AVX-512 lane body; see laneBody. Lane l of dst is
//
//	dst[l] = sum over m = 0…len(x)-1 of x[m] * w[r(m)*stride + l]
//
// with r(m) = idx[m], or m when idx is nil, summed in m order from +0 as
// a separate VMULPD and VADDPD per term. Lanes are taken in groups of 64,
// 32 and 16 (one accumulator per 8 lanes), then 8 at a time under the
// mask K1, whose last chunk holds only the lanes that are left, so no
// operand is read or written past len(dst). A group's sums are stored to
// dst, then, when t is non-nil, t += ts*dst and, when u is non-nil,
// u += us*dst, lane for lane.
//
// Registers: SI w plus the group's lane offset, R10 stride in bytes, AX
// x, DX len(x), R15 idx (0 when nil), DI the group's dst, R8 its t (0
// when nil), R9 its u (0 when nil), BX lanes left, CX terms left, R11
// row m of the group when idx is nil, R12 &x[m], R13 the term's row,
// R14 &idx[m], Z30 ts, Z31 us. As for chunksAVX512, the leading PCALIGN
// starts the body on a 64-byte boundary.

// TERM adds x[m] * the eight lanes at off(R13) into acc.
#define TERM(off, acc) \
	VMULPD off(R13), Z8, Z9; \
	VADDPD Z9, acc, acc

// FUSE adds scale * acc into the eight lanes at off(ptr).
#define FUSE(off, acc, ptr, scale) \
	VMULPD acc, scale, Z9; \
	VADDPD off(ptr), Z9, Z9; \
	VMOVUPD Z9, off(ptr)

// func lanesAVX512(w []float64, stride int, idx []int, x, dst, t []float64, ts float64, u []float64, us float64)
TEXT ·lanesAVX512(SB), NOSPLIT, $0-168
	PCALIGN $64
	MOVQ w_base+0(FP), SI
	MOVQ stride+24(FP), R10
	SHLQ $3, R10
	MOVQ idx_base+32(FP), R15
	MOVQ x_base+56(FP), AX
	MOVQ x_len+64(FP), DX
	MOVQ dst_base+80(FP), DI
	MOVQ dst_len+88(FP), BX
	MOVQ t_base+104(FP), R8
	VBROADCASTSD ts+128(FP), Z30
	MOVQ u_base+136(FP), R9
	VBROADCASTSD us+160(FP), Z31

lanes64:
	CMPQ BX, $64
	JLT  lanes32
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ SI, R11
	MOVQ AX, R12
	MOVQ R15, R14
	MOVQ DX, CX
	TESTQ CX, CX
	JZ    lanes64store

lanes64term:
	VBROADCASTSD (R12), Z8
	MOVQ R11, R13
	TESTQ R14, R14
	JZ    lanes64row
	MOVQ (R14), R13
	IMULQ R10, R13
	ADDQ SI, R13
	ADDQ $8, R14

lanes64row:
	TERM(0, Z0)
	TERM(64, Z1)
	TERM(128, Z2)
	TERM(192, Z3)
	TERM(256, Z4)
	TERM(320, Z5)
	TERM(384, Z6)
	TERM(448, Z7)
	ADDQ R10, R11
	ADDQ $8, R12
	DECQ CX
	JNZ  lanes64term

lanes64store:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	TESTQ R8, R8
	JZ    lanes64u
	FUSE(0, Z0, R8, Z30)
	FUSE(64, Z1, R8, Z30)
	FUSE(128, Z2, R8, Z30)
	FUSE(192, Z3, R8, Z30)
	FUSE(256, Z4, R8, Z30)
	FUSE(320, Z5, R8, Z30)
	FUSE(384, Z6, R8, Z30)
	FUSE(448, Z7, R8, Z30)
	ADDQ $512, R8

lanes64u:
	TESTQ R9, R9
	JZ    lanes64next
	FUSE(0, Z0, R9, Z31)
	FUSE(64, Z1, R9, Z31)
	FUSE(128, Z2, R9, Z31)
	FUSE(192, Z3, R9, Z31)
	FUSE(256, Z4, R9, Z31)
	FUSE(320, Z5, R9, Z31)
	FUSE(384, Z6, R9, Z31)
	FUSE(448, Z7, R9, Z31)
	ADDQ $512, R9

lanes64next:
	ADDQ $512, SI
	ADDQ $512, DI
	SUBQ $64, BX
	JMP  lanes64

lanes32:
	CMPQ BX, $32
	JLT  lanes16
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ SI, R11
	MOVQ AX, R12
	MOVQ R15, R14
	MOVQ DX, CX
	TESTQ CX, CX
	JZ    lanes32store

lanes32term:
	VBROADCASTSD (R12), Z8
	MOVQ R11, R13
	TESTQ R14, R14
	JZ    lanes32row
	MOVQ (R14), R13
	IMULQ R10, R13
	ADDQ SI, R13
	ADDQ $8, R14

lanes32row:
	TERM(0, Z0)
	TERM(64, Z1)
	TERM(128, Z2)
	TERM(192, Z3)
	ADDQ R10, R11
	ADDQ $8, R12
	DECQ CX
	JNZ  lanes32term

lanes32store:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	TESTQ R8, R8
	JZ    lanes32u
	FUSE(0, Z0, R8, Z30)
	FUSE(64, Z1, R8, Z30)
	FUSE(128, Z2, R8, Z30)
	FUSE(192, Z3, R8, Z30)
	ADDQ $256, R8

lanes32u:
	TESTQ R9, R9
	JZ    lanes32next
	FUSE(0, Z0, R9, Z31)
	FUSE(64, Z1, R9, Z31)
	FUSE(128, Z2, R9, Z31)
	FUSE(192, Z3, R9, Z31)
	ADDQ $256, R9

lanes32next:
	ADDQ $256, SI
	ADDQ $256, DI
	SUBQ $32, BX

lanes16:
	CMPQ BX, $16
	JLT  lanes8
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	MOVQ SI, R11
	MOVQ AX, R12
	MOVQ R15, R14
	MOVQ DX, CX
	TESTQ CX, CX
	JZ    lanes16store

lanes16term:
	VBROADCASTSD (R12), Z8
	MOVQ R11, R13
	TESTQ R14, R14
	JZ    lanes16row
	MOVQ (R14), R13
	IMULQ R10, R13
	ADDQ SI, R13
	ADDQ $8, R14

lanes16row:
	TERM(0, Z0)
	TERM(64, Z1)
	ADDQ R10, R11
	ADDQ $8, R12
	DECQ CX
	JNZ  lanes16term

lanes16store:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	TESTQ R8, R8
	JZ    lanes16u
	FUSE(0, Z0, R8, Z30)
	FUSE(64, Z1, R8, Z30)
	ADDQ $128, R8

lanes16u:
	TESTQ R9, R9
	JZ    lanes16next
	FUSE(0, Z0, R9, Z31)
	FUSE(64, Z1, R9, Z31)
	ADDQ $128, R9

lanes16next:
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $16, BX

	// At most 15 lanes are left: eight at a time, the last chunk masked
	// to the lanes that remain. K1 = (1 << min(BX, 8)) - 1.
lanes8:
	TESTQ BX, BX
	JZ    lanesdone
	MOVQ $8, CX
	CMPQ BX, CX
	CMOVQLT BX, CX
	MOVL $1, R13
	SHLL CX, R13
	DECL R13
	KMOVW R13, K1
	VPXORQ Z0, Z0, Z0
	MOVQ SI, R11
	MOVQ AX, R12
	MOVQ R15, R14
	MOVQ DX, CX
	TESTQ CX, CX
	JZ    lanes8store

lanes8term:
	VBROADCASTSD (R12), Z8
	MOVQ R11, R13
	TESTQ R14, R14
	JZ    lanes8row
	MOVQ (R14), R13
	IMULQ R10, R13
	ADDQ SI, R13
	ADDQ $8, R14

lanes8row:
	VMULPD.Z (R13), Z8, K1, Z9
	VADDPD Z9, Z0, Z0
	ADDQ R10, R11
	ADDQ $8, R12
	DECQ CX
	JNZ  lanes8term

lanes8store:
	VMOVUPD Z0, K1, (DI)
	TESTQ R8, R8
	JZ    lanes8u
	VMULPD Z0, Z30, Z9
	VMOVUPD.Z (R8), K1, Z10
	VADDPD Z10, Z9, Z9
	VMOVUPD Z9, K1, (R8)
	ADDQ $64, R8

lanes8u:
	TESTQ R9, R9
	JZ    lanes8next
	VMULPD Z0, Z31, Z9
	VMOVUPD.Z (R9), K1, Z10
	VADDPD Z10, Z9, Z9
	VMOVUPD Z9, K1, (R9)
	ADDQ $64, R9

lanes8next:
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, BX
	JGT  lanes8

lanesdone:
	VZEROUPPER
	RET
