//go:build !amd64

package linalg

// hasLanes is false: only amd64 has a vector lane body.
var hasLanes = false

// hostLanes is never called where hasLanes is false.
func hostLanes(w []float64, stride int, idx []int, x, dst, t []float64, ts float64, u []float64, us float64) {
	panic("linalg: no vector lane body on this architecture")
}
