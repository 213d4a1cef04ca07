package linalg

// Class scores in SIMD lanes: the weights of C classes over D dimensions
// laid out dims-major in chunks of 8 classes, one 512-bit vector of
// float64 lanes per chunk and dimension, so a scorer broadcasts x[d] once
// and multiplies it into every chunk.

// LaneChunk is the number of classes in one chunk of a LaneWeights
// layout.
const LaneChunk = chunk

// LaneWeights lays rows (one weight vector per class, all of one length D)
// out for a lane scorer: with chunks = ⌈len(rows)/8⌉, the weight of class
// 8c+l in dimension d is at (d*chunks + c)*8 + l. The pad lanes past the
// last class hold +0.
func LaneWeights(rows [][]float64) []float64 {
	chunks := (len(rows) + chunk - 1) / chunk
	if chunks == 0 {
		return nil
	}
	dims := len(rows[0])
	w := make([]float64, dims*chunks*chunk)
	for class, row := range rows {
		c, l := class/chunk, class%chunk
		for d, v := range row[:dims] {
			w[(d*chunks+c)*chunk+l] = v
		}
	}
	return w
}

// LaneScorer returns the host's SIMD class scorer, or nil on a host
// without one; callers then score with their own portable loop. The
// scorer takes a LaneWeights layout w, an input x of the rows' length D
// and dst of chunks*8 entries, and sets dst[8c+l] to class 8c+l's score:
// the sum over d = 0…D-1, in order from +0, of its weight times x[d], as
// a separate multiply and add per term (never a fused multiply-add). Each
// class's score is therefore bit for bit the scalar in-order dot product;
// the pad lanes' entries are not meaningful.
func LaneScorer() func(w, x, dst []float64) { return laneScorer }
