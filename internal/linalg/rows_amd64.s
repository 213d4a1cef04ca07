#include "textflag.h"

// The AVX-512 series body over a SELL layout; see seriesBody and
// chunksGo. Per chunk, per slot: load the eight lanes' column indices
// and values, gather x at the indices, multiply and add into the lane
// sums, which start at +0. Then dst += w*x, dst2 += w2*x when dst2 is
// non-nil, and next = x + s*invRate for the chunk's eight rows. Every
// chunk is at least one slot wide.
//
// Registers: SI idx, DI vals, R8 widths, R9 chunks left, AX x, R10 next,
// R11 dst, R12 dst2 (0 for none), BX the chunk's first row, CX slots
// left in the chunk.
//
// The leading PCALIGN pads nothing: it makes the linker start the body on
// a 64-byte boundary, so its loops keep one alignment whatever code is
// linked ahead of it.

// func chunksAVX512(idx []int32, vals []float64, widths []int32, x, next, dst, dst2 []float64, w, w2, invRate float64)
TEXT ·chunksAVX512(SB), NOSPLIT, $0-192
	PCALIGN $64
	MOVQ idx_base+0(FP), SI
	MOVQ vals_base+24(FP), DI
	MOVQ widths_base+48(FP), R8
	MOVQ widths_len+56(FP), R9
	MOVQ x_base+72(FP), AX
	MOVQ next_base+96(FP), R10
	MOVQ dst_base+120(FP), R11
	MOVQ dst2_base+144(FP), R12
	VBROADCASTSD w+168(FP), Z6
	VBROADCASTSD w2+176(FP), Z8
	VBROADCASTSD invRate+184(FP), Z7
	XORQ BX, BX
	TESTQ R9, R9
	JZ avx512done

avx512chunk:
	MOVLQZX (R8), CX
	VPXORQ Z0, Z0, Z0

avx512slot:
	VMOVDQU (SI), Y1
	KXNORW K0, K0, K1
	VPXORQ Z2, Z2, Z2
	VGATHERDPD (AX)(Y1*8), K1, Z2
	VMULPD (DI), Z2, Z2
	VADDPD Z2, Z0, Z0
	ADDQ $32, SI
	ADDQ $64, DI
	DECQ CX
	JNZ avx512slot

	VMOVUPD (AX)(BX*8), Z3
	VMULPD Z6, Z3, Z4
	VADDPD (R11)(BX*8), Z4, Z4
	VMOVUPD Z4, (R11)(BX*8)
	TESTQ R12, R12
	JZ avx512next
	VMULPD Z8, Z3, Z4
	VADDPD (R12)(BX*8), Z4, Z4
	VMOVUPD Z4, (R12)(BX*8)

avx512next:
	VMULPD Z7, Z0, Z5
	VADDPD Z5, Z3, Z5
	VMOVUPD Z5, (R10)(BX*8)
	ADDQ $4, R8
	ADDQ $8, BX
	DECQ R9
	JNZ avx512chunk

avx512done:
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
