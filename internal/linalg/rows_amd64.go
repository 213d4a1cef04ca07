package linalg

// The vector series body of rows_amd64.s. It runs chunksGo's operations
// lane for lane: one lane is one row, its products and sums are separate
// VMULPD and VADDPD in chunksGo's order (never a fused multiply-add), so
// each lane's bits are the scalar row's.

//go:noescape
func chunksAVX512(idx []int32, vals []float64, widths []int32, x, next, dst, dst2 []float64, w, w2, invRate float64)

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0, the register-state components the OS saves.
func xgetbv() (eax, edx uint32)

// hostBodies lists the series bodies this machine runs, fastest first:
// the AVX-512 body when hasAVX512, and chunksGo always.
func hostBodies() []namedBody {
	if hasAVX512() {
		return []namedBody{{"avx512", chunksAVX512}, {"go", chunksGo}}
	}
	return []namedBody{{"go", chunksGo}}
}

// hasAVX512 reports whether the CPU has AVX512F and the OS saves the
// YMM, opmask and ZMM register state.
func hasAVX512() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	if maxLeaf < 7 || ecx1&osxsave == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	_, ebx7, _, _ := cpuid(7, 0)
	const zmmState = 0xe6 // SSE|AVX|opmask|ZMM_Hi256|Hi16_ZMM
	const avx512f = 1 << 16
	return xcr0&zmmState == zmmState && ebx7&avx512f != 0
}
