package linalg

import (
	"math/rand"
	"testing"
)

// CheckFusedMatchesThreePass and CheckRowClassLayout give the external
// tests, which build generators from the model packages, the series bit
// check and the class-layout check of kernel_test.go.
func CheckFusedMatchesThreePass(t *testing.T, rng *rand.Rand, name string, qt *CSR) {
	checkFusedMatchesThreePass(t, rng, name, qt)
}

// CheckRowClassLayout checks qt's layout and returns its widest class
// width.
func CheckRowClassLayout(t *testing.T, qt *CSR) int {
	widest := 0
	for _, c := range checkRowClasses(t, qt).classes {
		widest = max(widest, (c.end-c.off)/(c.hi-c.lo))
	}
	return widest
}
