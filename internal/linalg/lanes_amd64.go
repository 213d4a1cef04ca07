package linalg

// The class scorer of lanes_amd64.s: one lane is one class, its products
// and sums are separate VMULPD and VADDPD in dimension order, so each
// lane's bits are the scalar dot product's.

//go:noescape
func lanesAVX512(w, x, dst []float64)

// laneScorer is lanesAVX512 when hasAVX512, else nil. The body reads w
// and writes dst at offsets it derives from len(x) and len(dst) alone, so
// operands that are not a LaneWeights layout for them are refused before
// it runs.
var laneScorer = func() func(w, x, dst []float64) {
	if !hasAVX512() {
		return nil
	}
	return func(w, x, dst []float64) {
		if len(dst)%chunk != 0 || len(w) != len(x)*len(dst) {
			panic("linalg: lane scorer operands are not a LaneWeights layout")
		}
		lanesAVX512(w, x, dst)
	}
}()
