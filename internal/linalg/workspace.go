package linalg

// Workspace recycles the scratch storage of the iterative kernels —
// uniformization vectors and matrices, the series' chunked copy of
// the generator, GTH elimination copies — and memoizes Poisson weight vectors keyed on (lambda, epsilon). Solving the
// same-sized model repeatedly (every sweep in the evaluation is exactly
// that) then runs allocation-free after the first solve.
//
// A Workspace is NOT safe for concurrent use; give each worker goroutine
// its own (e.g. via sync.Pool). All workspace-aware kernels accept a nil
// receiver and then behave like their allocate-per-call counterparts.
type Workspace struct {
	vecs    map[int][][]float64
	mats    map[matDim][]*Dense
	csrs    map[csrDim][]*CSR
	poisson map[poissonKey]poissonMemo
	rows    SELL
}

type matDim struct{ rows, cols int }

type csrDim struct{ rows, cols, nnz int }

type poissonKey struct{ lambda, epsilon float64 }

type poissonMemo struct {
	weights []float64
	right   int
}

// poissonMemoLimit bounds the memo. Reuse only matters within one solve,
// whose series all share a handful of (lambda, epsilon) pairs; a daemon
// answering unique parameter points would otherwise keep every weight
// vector it ever computed (megabytes per pooled workspace).
const poissonMemoLimit = 8

// matPoolDims bounds how many distinct matrix sizes the pool holds. One
// solve works in a handful of sizes; a long-lived workspace that sweeps
// many model sizes (the architecture comparison solves every (N, f, r))
// would otherwise keep every n x n matrix it ever released.
const matPoolDims = 4

// vecPoolLens bounds how many distinct vector lengths the pool holds.
// One solve works in a handful of lengths (the model size, its
// chunk-padded size, the Krylov dimensions, one coefficient vector per
// series length); a long-lived workspace that sweeps model sizes and
// intervals would otherwise keep every length it ever released.
const vecPoolLens = 16

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{
		vecs:    make(map[int][][]float64),
		mats:    make(map[matDim][]*Dense),
		csrs:    make(map[csrDim][]*CSR),
		poisson: make(map[poissonKey]poissonMemo),
	}
}

// Vec returns a zeroed length-n scratch vector, reusing a released one
// when available. With a nil workspace it simply allocates.
func (ws *Workspace) Vec(n int) []float64 {
	if ws == nil {
		return make([]float64, n)
	}
	free := ws.vecs[n]
	if len(free) == 0 {
		metWSVecMiss.Inc()
		return make([]float64, n)
	}
	metWSVecHit.Inc()
	v := free[len(free)-1]
	ws.vecs[n] = free[:len(free)-1]
	clear(v)
	return v
}

// PutVec releases a vector obtained from Vec back to the workspace. A
// length that would make more than vecPoolLens lengths pooled first
// empties the pool.
func (ws *Workspace) PutVec(v []float64) {
	if ws == nil || v == nil {
		return
	}
	if _, ok := ws.vecs[len(v)]; !ok && len(ws.vecs) >= vecPoolLens {
		clear(ws.vecs)
	}
	ws.vecs[len(v)] = append(ws.vecs[len(v)], v)
}

// Mat returns a zeroed rows x cols scratch matrix, reusing a released one
// when available. With a nil workspace it simply allocates.
func (ws *Workspace) Mat(rows, cols int) *Dense {
	if ws == nil {
		return NewDense(rows, cols)
	}
	d := matDim{rows, cols}
	free := ws.mats[d]
	if len(free) == 0 {
		metWSMatMiss.Inc()
		return NewDense(rows, cols)
	}
	metWSMatHit.Inc()
	m := free[len(free)-1]
	ws.mats[d] = free[:len(free)-1]
	m.Zero()
	return m
}

// PutMat releases a matrix obtained from Mat back to the workspace. A
// size that would make more than matPoolDims sizes pooled first empties
// the pool.
func (ws *Workspace) PutMat(m *Dense) {
	if ws == nil || m == nil {
		return
	}
	d := matDim{m.rows, m.cols}
	if _, ok := ws.mats[d]; !ok && len(ws.mats) >= matPoolDims {
		clear(ws.mats)
	}
	ws.mats[d] = append(ws.mats[d], m)
}

// CSR returns a rows x cols CSR shell with exactly nnz entries and zeroed
// Vals, reusing a released one when available. The caller (normally a
// stamping plan) fills RowPtr/ColIdx/Vals. With a nil workspace it simply
// allocates.
func (ws *Workspace) CSR(rows, cols, nnz int) *CSR {
	if ws == nil {
		return NewCSR(rows, cols, nnz)
	}
	d := csrDim{rows, cols, nnz}
	free := ws.csrs[d]
	if len(free) == 0 {
		metWSCSRMiss.Inc()
		return NewCSR(rows, cols, nnz)
	}
	metWSCSRHit.Inc()
	c := free[len(free)-1]
	ws.csrs[d] = free[:len(free)-1]
	clear(c.Vals)
	return c
}

// PutCSR releases a CSR obtained from CSR back to the workspace.
func (ws *Workspace) PutCSR(c *CSR) {
	if ws == nil || c == nil {
		return
	}
	d := csrDim{c.rows, c.cols, len(c.ColIdx)}
	ws.csrs[d] = append(ws.csrs[d], c)
}

// Poisson returns the truncated Poisson weight vector for the given mean
// and tail bound, memoized per (lambda, epsilon). The returned slice is
// shared across calls and must be treated as read-only.
func (ws *Workspace) Poisson(lambda, epsilon float64) (weights []float64, right int) {
	if ws == nil {
		return PoissonWeights(lambda, epsilon)
	}
	key := poissonKey{lambda, epsilon}
	if memo, ok := ws.poisson[key]; ok {
		metWSPoissonHit.Inc()
		return memo.weights, memo.right
	}
	metWSPoissonMiss.Inc()
	w, r := PoissonWeights(lambda, epsilon)
	if len(ws.poisson) >= poissonMemoLimit {
		clear(ws.poisson)
	}
	ws.poisson[key] = poissonMemo{weights: w, right: r}
	return w, r
}
