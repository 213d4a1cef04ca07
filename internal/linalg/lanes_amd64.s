#include "textflag.h"

// The AVX-512 class scorer over a LaneWeights layout; see LaneScorer.
// Chunks are scored in groups of four, then two, then one, with one
// accumulator per chunk that starts at +0: per dimension, broadcast x[d],
// then multiply it by each chunk's eight weights and add the product into
// that chunk's accumulator. The accumulators are stored to dst at the end
// of the group.
//
// Registers: SI the group's weights in dimension 0, DI the group's scores,
// AX x, DX dims, R9 chunks left, R10 bytes per dimension (chunks*64),
// R11 the group's weights in dimension d, R12 &x[d], CX dimensions left.
// As for chunksAVX512, the leading PCALIGN starts the body on a 64-byte
// boundary.

// func lanesAVX512(w, x, dst []float64)
TEXT ·lanesAVX512(SB), NOSPLIT, $0-72
	PCALIGN $64
	MOVQ w_base+0(FP), SI
	MOVQ x_base+24(FP), AX
	MOVQ x_len+32(FP), DX
	MOVQ dst_base+48(FP), DI
	MOVQ dst_len+56(FP), R9
	SHRQ $3, R9
	MOVQ R9, R10
	SHLQ $6, R10

lanes4:
	CMPQ R9, $4
	JLT  lanes2
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	MOVQ SI, R11
	MOVQ AX, R12
	MOVQ DX, CX
	TESTQ CX, CX
	JZ    lanes4store

lanes4dim:
	VBROADCASTSD (R12), Z4
	VMULPD (R11), Z4, Z5
	VADDPD Z5, Z0, Z0
	VMULPD 64(R11), Z4, Z6
	VADDPD Z6, Z1, Z1
	VMULPD 128(R11), Z4, Z7
	VADDPD Z7, Z2, Z2
	VMULPD 192(R11), Z4, Z8
	VADDPD Z8, Z3, Z3
	ADDQ R10, R11
	ADDQ $8, R12
	DECQ CX
	JNZ  lanes4dim

lanes4store:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	ADDQ $256, SI
	ADDQ $256, DI
	SUBQ $4, R9
	JMP  lanes4

lanes2:
	CMPQ R9, $2
	JLT  lanes1
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	MOVQ SI, R11
	MOVQ AX, R12
	MOVQ DX, CX
	TESTQ CX, CX
	JZ    lanes2store

lanes2dim:
	VBROADCASTSD (R12), Z4
	VMULPD (R11), Z4, Z5
	VADDPD Z5, Z0, Z0
	VMULPD 64(R11), Z4, Z6
	VADDPD Z6, Z1, Z1
	ADDQ R10, R11
	ADDQ $8, R12
	DECQ CX
	JNZ  lanes2dim

lanes2store:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $2, R9

lanes1:
	TESTQ R9, R9
	JZ    lanesdone
	VPXORQ Z0, Z0, Z0
	MOVQ SI, R11
	MOVQ AX, R12
	MOVQ DX, CX
	TESTQ CX, CX
	JZ    lanes1store

lanes1dim:
	VBROADCASTSD (R12), Z4
	VMULPD (R11), Z4, Z5
	VADDPD Z5, Z0, Z0
	ADDQ R10, R11
	ADDQ $8, R12
	DECQ CX
	JNZ  lanes1dim

lanes1store:
	VMOVUPD Z0, (DI)

lanesdone:
	VZEROUPPER
	RET
