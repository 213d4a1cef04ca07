package linalg

// The lane body of lanes_amd64.s: one lane is one output column, its
// products and sums are separate VMULPD and VADDPD in term order (never
// a fused multiply-add), so each lane's bits are the scalar in-order
// sum's.

//go:noescape
func lanesAVX512(w []float64, stride int, idx []int, x, dst, t []float64, ts float64, u []float64, us float64)

// hasLanes reports whether hostLanes may run: the CPU has AVX-512.
var hasLanes = hasAVX512()

// hostLanes runs lanesAVX512, called directly so that no function value
// and ABI wrapper sit between a product's row loop and the body.
func hostLanes(w []float64, stride int, idx []int, x, dst, t []float64, ts float64, u []float64, us float64) {
	lanesAVX512(w, stride, idx, x, dst, t, ts, u, us)
}
