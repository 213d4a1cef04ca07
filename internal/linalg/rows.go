package linalg

import "slices"

// chunk is the number of rows a chunk of the series layout holds: one
// 512-bit vector of float64 lanes.
const chunk = 8

// series adds sum_k coef[k] * pi * P^k, k = 0..len(coef)-1, into dst for
// P = I + Q/rate (invRate = 1/rate), the series every uniformization
// kernel runs; only the per-term coefficients differ. When dst2 is
// non-nil the same terms also add sum_k coef2[k] * pi * P^k into dst2
// (coef2 as long as coef), so one pass yields both the transient vector
// and its integral. Each term but the last is one call of the host's
// chunk body over the layout l; the last needs no next vector. pi and
// the accumulators are permuted into series numbering once and back out
// once, so the terms in between run on vectors padded to whole chunks,
// whose pad entries stay zero.
func (ws *Workspace) series(l *SELL, pi []float64, invRate float64, coef, dst, coef2, dst2 []float64) {
	size := len(l.widths) * chunk
	cur := ws.Vec(size)
	next := ws.Vec(size)
	acc := ws.Vec(size)
	var acc2 []float64
	if dst2 != nil {
		acc2 = ws.Vec(size)
		for p, i := range l.perm {
			acc2[p] = dst2[i]
		}
	}
	for p, i := range l.perm {
		cur[p], acc[p] = pi[i], dst[i]
	}
	last := len(coef) - 1
	metUnifEntries.Add(int64(last) * int64(len(l.idx)))
	w2 := 0.0
	for k := 0; k < last; k++ {
		if dst2 != nil {
			w2 = coef2[k]
		}
		hostBody(l.idx, l.vals, l.widths, cur, next, acc, acc2, coef[k], w2, invRate)
		cur, next = next, cur
	}
	w := coef[last]
	for p, i := range l.perm {
		dst[i] = acc[p] + w*cur[p]
	}
	if dst2 != nil {
		w2 = coef2[last]
		for p, i := range l.perm {
			dst2[i] = acc2[p] + w2*cur[p]
		}
		ws.PutVec(acc2)
	}
	ws.PutVec(acc)
	ws.PutVec(cur)
	ws.PutVec(next)
}

// SELL is a transposed generator laid out for the series step in
// SELL-8 form, SELL-C-σ (Kreutzer et al., SIAM J. Sci. Comput. 2014)
// with chunks of C = 8 rows. The states are renumbered stably by stored
// width: perm[p] is the state of series row p, and the column indices in
// idx are series numbers. Series rows 8c..8c+7 form chunk c, whose width
// widths[c] is its widest row, at least 1; pad rows past the last state
// fill the final chunk. A chunk's slots follow the previous chunk's, and
// slot s of lane l sits at off + s*8 + l, so one slot of all eight lanes
// is one contiguous load of indices and one of values. Each row holds its
// stored entries in qt's storage order, then pad slots (its own row, +0)
// up to the chunk width.
//
// A lane gathers its row's terms in ascending storage order from +0, as
// CSR.MulVecInto does; a pad term adds +0 or -0 to a sum that is never
// -0, so for finite operands the bits are the CSR gather's.
type SELL struct {
	idx    []int32
	vals   []float64
	widths []int32
	perm   []int32
	inv    []int32 // state -> series row, while building
	start  []int   // per-width row cursors, while building
}

// seriesBody runs one series term over every chunk of a SELL layout:
// for each series row i it gathers s over the row's slots, then
//
//	dst[i] += w * x[i]
//	dst2[i] += w2 * x[i]   (only when dst2 is non-nil)
//	next[i] = x[i] + s * invRate
//
// which are the operations, and so the bits, of an axpy into dst, one
// into dst2, a CSR.MulVecInto into a scratch vector and an in-place
// update of x. x, next, dst and a non-nil dst2 hold 8*len(widths)
// entries.
type seriesBody func(idx []int32, vals []float64, widths []int32, x, next, dst, dst2 []float64, w, w2, invRate float64)

// namedBody is a series body and the name tests report it by.
type namedBody struct {
	name string
	run  seriesBody
}

// hostBody is the fastest body this machine supports, chosen once: the
// first of hostBodies, which ends with the portable chunksGo.
var hostBody = hostBodies()[0].run

// SeriesLayout copies qt, a transposed generator, into the workspace's
// SELL layout and returns it; a nil workspace allocates one. The layout
// stays valid until the next SeriesLayout call on ws. A caller that runs
// many series over one generator lays it out once and passes the layout
// to UniformizedSELL; a layout is never looked up by its CSR, whose
// pooled storage may be re-stamped in place.
func (ws *Workspace) SeriesLayout(qt *CSR) *SELL {
	var l *SELL
	if ws != nil {
		l = &ws.rows
	} else {
		l = new(SELL)
	}
	n := qt.rows
	width := func(i int) int { return qt.RowPtr[i+1] - qt.RowPtr[i] }
	widest := 0
	for i := 0; i < n; i++ {
		widest = max(widest, width(i))
	}

	// Counting sort by stored width, stable within a width: start[w] is
	// first the number of rows of width w, then the cursor of the next
	// one.
	l.start = slices.Grow(l.start[:0], widest+1)[:widest+1]
	clear(l.start)
	for i := 0; i < n; i++ {
		l.start[width(i)]++
	}
	p := 0
	for w, count := range l.start {
		l.start[w] = p
		p += count
	}
	l.perm = slices.Grow(l.perm[:0], n)[:n]
	l.inv = slices.Grow(l.inv[:0], n)[:n]
	for i := 0; i < n; i++ {
		w := width(i)
		p := l.start[w]
		l.start[w] = p + 1
		l.perm[p], l.inv[i] = int32(i), int32(p)
	}

	// Rows ascend in width, so a chunk's widest row is its last state.
	chunks := (n + chunk - 1) / chunk
	l.widths = slices.Grow(l.widths[:0], chunks)[:chunks]
	slots := 0
	for c := range l.widths {
		w := max(1, width(int(l.perm[min(n, (c+1)*chunk)-1])))
		l.widths[c] = int32(w)
		slots += w * chunk
	}
	l.idx = slices.Grow(l.idx[:0], slots)[:slots]
	l.vals = slices.Grow(l.vals[:0], slots)[:slots]
	off := 0
	for c, w := range l.widths {
		for lane := 0; lane < chunk; lane++ {
			p := c*chunk + lane
			s := 0
			if p < n {
				i := l.perm[p]
				for q := qt.RowPtr[i]; q < qt.RowPtr[i+1]; q++ {
					l.idx[off+s*chunk+lane], l.vals[off+s*chunk+lane] = l.inv[qt.ColIdx[q]], qt.Vals[q]
					s++
				}
			}
			for ; s < int(w); s++ {
				l.idx[off+s*chunk+lane], l.vals[off+s*chunk+lane] = int32(p), 0
			}
		}
		off += int(w) * chunk
	}
	return l
}

// chunksGo is the portable series body, the one every machine runs
// without a vector body and the oracle the vector bodies are tested
// against: each lane's sum is a row's CSR gather. The lanes are spelled
// out so that their sums stay in registers.
func chunksGo(idx []int32, vals []float64, widths []int32, x, next, dst, dst2 []float64, w, w2, invRate float64) {
	off := 0
	for c, width := range widths {
		end := off + int(width)*chunk
		ci, cv := idx[off:end], vals[off:end]
		cv = cv[:len(ci)]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for k := 0; k+chunk <= len(ci); k += chunk {
			r, v := ci[k:k+chunk:k+chunk], cv[k:k+chunk:k+chunk]
			s0 += v[0] * x[r[0]]
			s1 += v[1] * x[r[1]]
			s2 += v[2] * x[r[2]]
			s3 += v[3] * x[r[3]]
			s4 += v[4] * x[r[4]]
			s5 += v[5] * x[r[5]]
			s6 += v[6] * x[r[6]]
			s7 += v[7] * x[r[7]]
		}
		r := c * chunk
		xc, nc, dc := x[r:r+chunk:r+chunk], next[r:r+chunk:r+chunk], dst[r:r+chunk:r+chunk]
		for lane, sum := range [chunk]float64{s0, s1, s2, s3, s4, s5, s6, s7} {
			dc[lane] += w * xc[lane]
			nc[lane] = xc[lane] + sum*invRate
		}
		if dst2 != nil {
			d2 := dst2[r : r+chunk : r+chunk]
			for lane := range d2 {
				d2[lane] += w2 * xc[lane]
			}
		}
		off = end
	}
}
