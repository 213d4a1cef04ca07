//go:build !amd64

package linalg

// laneScorer is nil: only amd64 has a vector class scorer.
var laneScorer func(w, x, dst []float64)
