package linalg

import (
	"math/rand"
	"slices"
	"testing"
)

// CheckFusedMatchesThreePass and CheckChunkLayout give the external
// tests, which build generators from the model packages, the series bit
// check and the chunk-layout check of kernel_test.go.
func CheckFusedMatchesThreePass(t *testing.T, rng *rand.Rand, name string, qt *CSR) {
	checkFusedMatchesThreePass(t, rng, name, qt)
}

// CheckLaneBodies runs the lane-body bit check of kernel_test.go on a
// generator and its clock branching matrix.
func CheckLaneBodies(t *testing.T, rng *rand.Rand, name string, q, d *Dense) {
	checkLaneBodies(t, rng, name, q, d)
}

// CheckChunkLayout checks qt's layout and returns its widest chunk
// width.
func CheckChunkLayout(t *testing.T, qt *CSR) int {
	return int(slices.Max(checkChunkLayout(t, qt).widths))
}
