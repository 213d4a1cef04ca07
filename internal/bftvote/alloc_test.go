//go:build !race

// The race detector makes sync.Pool drop a random share of its Puts, so
// under it a pooled round allocates by design.

package bftvote

import (
	"testing"

	"nvrel/internal/des"
)

// TestRoundAllocatesNothing: once the round pool is warm, a whole round
// run into a reused result allocates nothing.
func TestRoundAllocatesNothing(t *testing.T) {
	var res RoundResult
	round := roundChurn(&res, des.NewRNG(3))
	for i := 0; i < 10; i++ {
		if err := round(i); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		if err := round(i); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("a pooled round allocates %v, want 0", allocs)
	}
}
