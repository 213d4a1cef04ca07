package linalg

import "testing"

// TestLaneScorerRefusesMismatchedOperands: the vector body trusts its
// operand lengths, so the scorer panics on any that are not a LaneWeights
// layout for the given input and score lengths instead of reading past w.
func TestLaneScorerRefusesMismatchedOperands(t *testing.T) {
	score := LaneScorer()
	if score == nil {
		t.Skip("no lane scorer on this host")
	}
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}}
	w := LaneWeights(rows)
	for _, tc := range []struct {
		name   string
		x, dst []float64
	}{
		{"input too long", make([]float64, 4), make([]float64, 8)},
		{"two chunks of scores for one", make([]float64, 3), make([]float64, 16)},
		{"partial chunk of scores", make([]float64, 3), make([]float64, 7)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			score(w, tc.x, tc.dst)
		}()
	}
	dst := make([]float64, 8)
	score(w, []float64{1, 1, 1}, dst)
	if dst[0] != 6 || dst[1] != 15 {
		t.Errorf("scores %v, want 6 and 15 first", dst[:2])
	}
}
