package linalg

// SIMD lanes over row combinations. One body computes
//
//	dst = sum over m of x[m] * w[r(m)*stride : r(m)*stride+len(dst)]
//
// with r(m) = idx[m], or m when idx is nil: each row of a dense product
// is such a combination of rows, one call per output row. The terms are
// added in m order from +0, each as a separate multiply and add, so
// every lane holds the bits of the scalar in-order sum. On a host with
// the vector body, the class scores of LaneScorer and the products of
// Dense.MulInto, Dense.VecMulInto and Dense.MulCSRInto all run through
// it.

// hostLanes, the host's vector lane body (run only when hasLanes), takes
//
//	(w []float64, stride int, idx []int, x, dst, t []float64, ts float64, u []float64, us float64)
//
// and after the sum adds ts*dst into t lane for lane when t is non-nil,
// and us*dst into u when u is non-nil (t += ts*dst as a multiply, then
// an add). It trusts its operands: r(m)*stride + len(dst) <= len(w) for
// every m, len(idx) == len(x) unless idx is nil, and t and u nil or
// len(dst) long; callers check them.

// lanesGo is the portable lane body of Dense.MulCSRInto, which always
// passes idx: eight lanes at a time, then one, each summed in a register
// over the terms.
func lanesGo(w []float64, stride int, idx []int, x, dst, t []float64, ts float64, u []float64, us float64) {
	x = x[:len(idx)]
	l := 0
	for ; l+7 < len(dst); l += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for m, r := range idx {
			xm := x[m]
			wr := w[r*stride+l:][:8:8]
			s0 += xm * wr[0]
			s1 += xm * wr[1]
			s2 += xm * wr[2]
			s3 += xm * wr[3]
			s4 += xm * wr[4]
			s5 += xm * wr[5]
			s6 += xm * wr[6]
			s7 += xm * wr[7]
		}
		d := dst[l : l+8 : l+8]
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	for ; l < len(dst); l++ {
		var s float64
		for m, r := range idx {
			s += x[m] * w[r*stride+l]
		}
		dst[l] = s
	}
	if t != nil {
		t = t[:len(dst)]
		for l, v := range dst {
			t[l] += ts * v
		}
	}
	if u != nil {
		u = u[:len(dst)]
		for l, v := range dst {
			u[l] += us * v
		}
	}
}

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
// the pad lanes' entries are not meaningful. It is the lane body with
// dimension d's weights as row d.
func LaneScorer() func(w, x, dst []float64) {
	if !hasLanes {
		return nil
	}
	return laneScorer
}

// laneScorer refuses operands that are not a LaneWeights layout for
// len(x) and len(dst) before the body, which trusts them, runs.
func laneScorer(w, x, dst []float64) {
	if len(dst)%chunk != 0 || len(w) != len(x)*len(dst) {
		panic("linalg: lane scorer operands are not a LaneWeights layout")
	}
	hostLanes(w, len(dst), nil, x, dst, nil, 0, nil, 0)
}
