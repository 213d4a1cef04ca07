package linalg

import "slices"

// series adds sum_k coef[k] * pi * P^k, k = 0..len(coef)-1, into dst for
// P = I + Q/rate (invRate = 1/rate), the series both uniformization
// kernels share; only their per-term coefficients differ. Each term but
// the last is one fused pass over the row classes of qt's fixedRows
// layout; the last needs no next vector. A renumbered layout permutes pi
// and dst in once and dst back out once, so the passes in between run in
// series numbering.
func (ws *Workspace) series(qt *CSR, pi, coef []float64, invRate float64, dst []float64) {
	l := ws.fixedRows(qt)
	n := len(pi)
	cur := ws.Vec(n)
	next := ws.Vec(n)
	acc := dst
	if len(l.perm) > 0 {
		acc = ws.Vec(n)
		for p, i := range l.perm {
			cur[p], acc[p] = pi[i], dst[i]
		}
	} else {
		copy(cur, pi)
	}
	last := len(coef) - 1
	metUnifEntries.Add(int64(last) * int64(len(l.idx)))
	// One class runs its body straight over the whole vectors: the
	// class loop and its re-slicing cost ~10% per term on the 15-state
	// four-version generator, whose terms are ~60 slots each.
	if len(l.classes) == 1 {
		body, idx, vals := l.classes[0].body, l.idx, l.vals
		for k := 0; k < last; k++ {
			body(idx, vals, cur, cur, next, acc, coef[k], invRate)
			cur, next = next, cur
		}
	} else {
		for k := 0; k < last; k++ {
			w := coef[k]
			for _, c := range l.classes {
				c.body(l.idx[c.off:c.end], l.vals[c.off:c.end], cur, cur[c.lo:c.hi], next[c.lo:c.hi], acc[c.lo:c.hi], w, invRate)
			}
			cur, next = next, cur
		}
	}
	w := coef[last]
	for i := range acc {
		acc[i] += w * cur[i]
	}
	if len(l.perm) > 0 {
		for p, i := range l.perm {
			dst[i] = acc[p]
		}
		ws.PutVec(acc)
	}
	ws.PutVec(cur)
	ws.PutVec(next)
}

// fixedRows is a transposed generator laid out for the series step as
// exact-width row classes, the layout of SELL-C-σ (Kreutzer et al., SIAM
// J. Sci. Comput. 2014) with every row of a class holding the same
// number of entries. A class is a contiguous range of rows in series
// numbering whose entries, in qt's storage order, sit back to back in
// idx/vals, so its body needs no row pointers and, for widths 1-8, no
// inner loop.
//
// When padding every row to the widest would add at most half the stored
// entries again, the layout is one class in state order (perm is empty)
// whose short rows are padded with (column i, value 0); every paper-scale
// generator falls in this case. Otherwise the rows are renumbered stably
// by stored width, perm[p] is the state of series row p, the column
// indices in idx are series numbers, and nothing is padded.
//
// Either way each row gathers its stored terms in ascending storage order
// from +0, as CSR.MulVecInto does; a padding term adds +0 or -0 to a sum
// that is never -0, so for finite operands the bits are the CSR gather's.
type fixedRows struct {
	idx     []int32
	vals    []float64
	classes []rowClass
	perm    []int32
	inv     []int32 // state -> series row, while building
	start   []int   // per-width row cursors, while building
}

// rowClass is one width's rows [lo, hi) in series numbering, their slots
// [off, end) of idx/vals, and the leaf body that runs them.
type rowClass struct {
	lo, hi, off, end int
	body             rowBody
}

// rowBody runs one series term over a class: for each row i of cur (the
// class's slice of x, the whole current vector) it gathers s over the
// row's slots of idx/vals, then
//
//	dst[i] += w * cur[i]
//	next[i] = cur[i] + s * invRate
//
// which are the operations, and so the bits, of an axpy into dst, a
// CSR.MulVecInto into a scratch vector and an in-place update of cur.
type rowBody func(idx []int32, vals []float64, x, cur, next, dst []float64, w, invRate float64)

// bodies holds the leaf body for each row width below len(bodies): a
// straight-line body for widths 1-8, whose fixed-length row slices carry
// no bounds checks on the row loads. Empty and wider rows run the loop.
var bodies = [...]rowBody{rowsLoop, rows1, rows2, rows3, rows4, rows5, rows6, rows7, rows8}

func bodyFor(width int) rowBody {
	if width < len(bodies) {
		return bodies[width]
	}
	return rowsLoop
}

// fixedRows copies qt into the workspace's layout; a nil workspace
// allocates one.
func (ws *Workspace) fixedRows(qt *CSR) *fixedRows {
	var l *fixedRows
	if ws != nil {
		l = &ws.rows
	} else {
		l = new(fixedRows)
	}
	n, nnz := qt.rows, qt.NNZ()
	widest := 0
	for i := 0; i < n; i++ {
		widest = max(widest, qt.RowPtr[i+1]-qt.RowPtr[i])
	}
	l.classes = l.classes[:0]
	l.perm = l.perm[:0]
	if 2*n*widest <= 3*nnz {
		size := n * widest
		l.idx = slices.Grow(l.idx[:0], size)[:size]
		l.vals = slices.Grow(l.vals[:0], size)[:size]
		for i := 0; i < n; i++ {
			idx, vals := l.idx[i*widest:(i+1)*widest], l.vals[i*widest:(i+1)*widest]
			k := 0
			for p := qt.RowPtr[i]; p < qt.RowPtr[i+1]; p++ {
				idx[k], vals[k] = int32(qt.ColIdx[p]), qt.Vals[p]
				k++
			}
			for ; k < widest; k++ {
				idx[k], vals[k] = int32(i), 0
			}
		}
		l.classes = append(l.classes, rowClass{lo: 0, hi: n, off: 0, end: size, body: bodyFor(widest)})
		return l
	}

	// Counting sort by stored width, stable within a width: start[w] is
	// first the number of rows of width w, then the cursor of the next
	// one.
	l.start = slices.Grow(l.start[:0], widest+1)[:widest+1]
	clear(l.start)
	for i := 0; i < n; i++ {
		l.start[qt.RowPtr[i+1]-qt.RowPtr[i]]++
	}
	lo, off := 0, 0
	for w, count := range l.start {
		if count == 0 {
			continue
		}
		hi := lo + count
		l.classes = append(l.classes, rowClass{lo: lo, hi: hi, off: off, end: off + w*count, body: bodyFor(w)})
		l.start[w] = lo
		lo, off = hi, off+w*count
	}
	l.perm = slices.Grow(l.perm, n)[:n]
	l.inv = slices.Grow(l.inv[:0], n)[:n]
	for i := 0; i < n; i++ {
		w := qt.RowPtr[i+1] - qt.RowPtr[i]
		p := l.start[w]
		l.start[w] = p + 1
		l.perm[p], l.inv[i] = int32(i), int32(p)
	}
	l.idx = slices.Grow(l.idx[:0], nnz)[:nnz]
	l.vals = slices.Grow(l.vals[:0], nnz)[:nnz]
	k := 0
	for _, i := range l.perm {
		for p := qt.RowPtr[i]; p < qt.RowPtr[i+1]; p++ {
			l.idx[k], l.vals[k] = l.inv[qt.ColIdx[p]], qt.Vals[p]
			k++
		}
	}
	return l
}

// rowsLoop is the body for rows wider than 8 (and empty ones): the CSR
// gather over the class's back-to-back rows, whose width it derives from
// the slice lengths.
func rowsLoop(idx []int32, vals []float64, x, cur, next, dst []float64, w, invRate float64) {
	n := len(cur)
	next, dst = next[:n], dst[:n]
	width := len(idx) / n
	vals = vals[:len(idx)]
	for i, c := range cur {
		r, v := idx[width*i:width*(i+1)], vals[width*i:width*(i+1)]
		v = v[:len(r)]
		s := 0.0
		for k, j := range r {
			s += v[k] * x[j]
		}
		dst[i] += w * c
		next[i] = c + s*invRate
	}
}

// The straight-line bodies, one per width 1-8: bodyFor's cases.

func rows1(idx []int32, vals []float64, x, cur, next, dst []float64, w, invRate float64) {
	n := len(cur)
	idx, vals = idx[:n], vals[:n]
	next, dst = next[:n], dst[:n]
	for i, c := range cur {
		s := 0.0
		s += vals[i] * x[idx[i]]
		dst[i] += w * c
		next[i] = c + s*invRate
	}
}

func rows2(idx []int32, vals []float64, x, cur, next, dst []float64, w, invRate float64) {
	n := len(cur)
	idx, vals = idx[:2*n], vals[:2*n]
	next, dst = next[:n], dst[:n]
	for i, c := range cur {
		r, v := idx[2*i:2*i+2:2*i+2], vals[2*i:2*i+2:2*i+2]
		s := 0.0
		s += v[0] * x[r[0]]
		s += v[1] * x[r[1]]
		dst[i] += w * c
		next[i] = c + s*invRate
	}
}

func rows3(idx []int32, vals []float64, x, cur, next, dst []float64, w, invRate float64) {
	n := len(cur)
	idx, vals = idx[:3*n], vals[:3*n]
	next, dst = next[:n], dst[:n]
	for i, c := range cur {
		r, v := idx[3*i:3*i+3:3*i+3], vals[3*i:3*i+3:3*i+3]
		s := 0.0
		s += v[0] * x[r[0]]
		s += v[1] * x[r[1]]
		s += v[2] * x[r[2]]
		dst[i] += w * c
		next[i] = c + s*invRate
	}
}

func rows4(idx []int32, vals []float64, x, cur, next, dst []float64, w, invRate float64) {
	n := len(cur)
	idx, vals = idx[:4*n], vals[:4*n]
	next, dst = next[:n], dst[:n]
	for i, c := range cur {
		r, v := idx[4*i:4*i+4:4*i+4], vals[4*i:4*i+4:4*i+4]
		s := 0.0
		s += v[0] * x[r[0]]
		s += v[1] * x[r[1]]
		s += v[2] * x[r[2]]
		s += v[3] * x[r[3]]
		dst[i] += w * c
		next[i] = c + s*invRate
	}
}

func rows5(idx []int32, vals []float64, x, cur, next, dst []float64, w, invRate float64) {
	n := len(cur)
	idx, vals = idx[:5*n], vals[:5*n]
	next, dst = next[:n], dst[:n]
	for i, c := range cur {
		r, v := idx[5*i:5*i+5:5*i+5], vals[5*i:5*i+5:5*i+5]
		s := 0.0
		s += v[0] * x[r[0]]
		s += v[1] * x[r[1]]
		s += v[2] * x[r[2]]
		s += v[3] * x[r[3]]
		s += v[4] * x[r[4]]
		dst[i] += w * c
		next[i] = c + s*invRate
	}
}

func rows6(idx []int32, vals []float64, x, cur, next, dst []float64, w, invRate float64) {
	n := len(cur)
	idx, vals = idx[:6*n], vals[:6*n]
	next, dst = next[:n], dst[:n]
	for i, c := range cur {
		r, v := idx[6*i:6*i+6:6*i+6], vals[6*i:6*i+6:6*i+6]
		s := 0.0
		s += v[0] * x[r[0]]
		s += v[1] * x[r[1]]
		s += v[2] * x[r[2]]
		s += v[3] * x[r[3]]
		s += v[4] * x[r[4]]
		s += v[5] * x[r[5]]
		dst[i] += w * c
		next[i] = c + s*invRate
	}
}

func rows7(idx []int32, vals []float64, x, cur, next, dst []float64, w, invRate float64) {
	n := len(cur)
	idx, vals = idx[:7*n], vals[:7*n]
	next, dst = next[:n], dst[:n]
	for i, c := range cur {
		r, v := idx[7*i:7*i+7:7*i+7], vals[7*i:7*i+7:7*i+7]
		s := 0.0
		s += v[0] * x[r[0]]
		s += v[1] * x[r[1]]
		s += v[2] * x[r[2]]
		s += v[3] * x[r[3]]
		s += v[4] * x[r[4]]
		s += v[5] * x[r[5]]
		s += v[6] * x[r[6]]
		dst[i] += w * c
		next[i] = c + s*invRate
	}
}

func rows8(idx []int32, vals []float64, x, cur, next, dst []float64, w, invRate float64) {
	n := len(cur)
	idx, vals = idx[:8*n], vals[:8*n]
	next, dst = next[:n], dst[:n]
	for i, c := range cur {
		r, v := idx[8*i:8*i+8:8*i+8], vals[8*i:8*i+8:8*i+8]
		s := 0.0
		s += v[0] * x[r[0]]
		s += v[1] * x[r[1]]
		s += v[2] * x[r[2]]
		s += v[3] * x[r[3]]
		s += v[4] * x[r[4]]
		s += v[5] * x[r[5]]
		s += v[6] * x[r[6]]
		s += v[7] * x[r[7]]
		dst[i] += w * c
		next[i] = c + s*invRate
	}
}
