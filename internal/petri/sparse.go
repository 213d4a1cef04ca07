package petri

import (
	"fmt"
	"sort"
	"sync"

	"nvrel/internal/faultinject"
	"nvrel/internal/linalg"
)

// GeneratorPlan is a precomputed CSR assembly recipe for the generator
// matrix of a reachability graph: the sparsity pattern of Q (and of its
// transpose, for the column-oriented steady-state sweeps) plus, for every
// exponential rate edge, the Vals slots the edge's rate accumulates into.
// The pattern depends only on the graph topology, which petri.Restamp
// preserves, so one plan serves every re-stamped sibling of a sweep: each
// point re-stamps by rewriting the values array, never re-deriving the
// structure. The diagonal is always materialized (even for states whose
// exponential exit rate is zero) so kernels can read exit rates directly.
type GeneratorPlan struct {
	n      int
	rowPtr []int
	colIdx []int
	// edgeOff[k] and edgeDiag[k] are the Vals slots edge k adds its rate
	// to (+rate at (From,To), -rate at (From,From)) in the forward layout.
	edgeOff  []int
	edgeDiag []int

	tRowPtr []int
	tColIdx []int
	// tEdgeOff/tEdgeDiag are the same slots in the transposed layout
	// (row To holds the incoming rates of state To).
	tEdgeOff  []int
	tEdgeDiag []int
}

// topology is the part of a reachability graph shared across Restamp
// siblings: it memoizes derived structures that depend only on the state
// space and the edge/schedule shape, never on the stamped rates. All
// fields are built at most once and are read-only afterwards, so sharing
// across concurrently solving goroutines is safe.
type topology struct {
	planOnce sync.Once
	plan     *GeneratorPlan

	detOnce sync.Once
	det     *linalg.CSR // transposed clock branching probabilities (rate-independent)
}

// NewGeneratorPlan derives the CSR assembly plan of g's generator. Prefer
// Graph.SparsePlan, which memoizes the plan on the shared topology.
func NewGeneratorPlan(g *Graph) *GeneratorPlan {
	n := g.NumStates()
	p := &GeneratorPlan{
		n:         n,
		edgeOff:   make([]int, len(g.Exp)),
		edgeDiag:  make([]int, len(g.Exp)),
		tEdgeOff:  make([]int, len(g.Exp)),
		tEdgeDiag: make([]int, len(g.Exp)),
	}
	p.rowPtr, p.colIdx = patternFor(n, g.Exp, false)
	p.tRowPtr, p.tColIdx = patternFor(n, g.Exp, true)
	for k, e := range g.Exp {
		p.edgeOff[k] = slotOf(p.rowPtr, p.colIdx, e.From, e.To)
		p.edgeDiag[k] = slotOf(p.rowPtr, p.colIdx, e.From, e.From)
		p.tEdgeOff[k] = slotOf(p.tRowPtr, p.tColIdx, e.To, e.From)
		p.tEdgeDiag[k] = slotOf(p.tRowPtr, p.tColIdx, e.From, e.From)
	}
	return p
}

// patternFor builds the sorted CSR pattern of the edge set (optionally
// transposed), with every diagonal entry materialized.
func patternFor(n int, edges []RateEdge, transpose bool) (rowPtr, colIdx []int) {
	perRow := make([][]int, n)
	for i := range perRow {
		perRow[i] = append(perRow[i], i) // diagonal
	}
	for _, e := range edges {
		r, c := e.From, e.To
		if transpose {
			r, c = c, r
		}
		perRow[r] = append(perRow[r], c)
	}
	rowPtr = make([]int, n+1)
	nnz := 0
	for i, cols := range perRow {
		sort.Ints(cols)
		w := 0
		for k, c := range cols {
			if k > 0 && c == cols[w-1] {
				continue
			}
			cols[w] = c
			w++
		}
		perRow[i] = cols[:w]
		nnz += w
	}
	colIdx = make([]int, 0, nnz)
	for i, cols := range perRow {
		rowPtr[i] = len(colIdx)
		colIdx = append(colIdx, cols...)
	}
	rowPtr[n] = len(colIdx)
	return rowPtr, colIdx
}

// slotOf locates the Vals index of entry (i, j) in a sorted CSR pattern.
func slotOf(rowPtr, colIdx []int, i, j int) int {
	lo, hi := rowPtr[i], rowPtr[i+1]
	k := lo + sort.SearchInts(colIdx[lo:hi], j)
	if k >= hi || colIdx[k] != j {
		panic(fmt.Sprintf("petri: pattern misses entry (%d,%d)", i, j))
	}
	return k
}

// States returns the number of tangible states the plan covers.
func (p *GeneratorPlan) States() int { return p.n }

// NNZ returns the number of stored generator entries.
func (p *GeneratorPlan) NNZ() int { return len(p.colIdx) }

// Stamp assembles g's generator Q into a workspace-pooled CSR by rewriting
// only the values array of the precomputed pattern. g must be the graph
// the plan was built from or one of its Restamp siblings. Release the
// result with ws.PutCSR.
func (p *GeneratorPlan) Stamp(g *Graph, ws *linalg.Workspace) (*linalg.CSR, error) {
	return p.stamp(g, ws, p.rowPtr, p.colIdx, p.edgeOff, p.edgeDiag)
}

// StampTranspose assembles the transpose of g's generator (row j holding
// the incoming rates of state j), the layout the Gauss-Seidel steady-state
// sweep consumes.
func (p *GeneratorPlan) StampTranspose(g *Graph, ws *linalg.Workspace) (*linalg.CSR, error) {
	return p.stamp(g, ws, p.tRowPtr, p.tColIdx, p.tEdgeOff, p.tEdgeDiag)
}

func (p *GeneratorPlan) stamp(g *Graph, ws *linalg.Workspace, rowPtr, colIdx, off, diag []int) (*linalg.CSR, error) {
	if g.NumStates() != p.n || len(g.Exp) != len(off) {
		return nil, fmt.Errorf("%w: plan covers %d states/%d edges, graph has %d/%d",
			ErrStructureMismatch, p.n, len(off), g.NumStates(), len(g.Exp))
	}
	c := ws.CSR(p.n, p.n, len(colIdx))
	copy(c.RowPtr, rowPtr)
	copy(c.ColIdx, colIdx)
	for k, e := range g.Exp {
		c.Vals[off[k]] += e.Rate
		c.Vals[diag[k]] -= e.Rate
	}
	if faultinject.Enabled() {
		fiStampCorrupt.Corrupt(c.Vals)
	}
	return c, nil
}

// SparsePlan returns the graph's generator assembly plan, building it on
// first use and memoizing it on the topology shared with every Restamp
// sibling. Graphs assembled without Explore fall back to a fresh plan per
// call.
func (g *Graph) SparsePlan() *GeneratorPlan {
	if g.topo == nil {
		metPlanBuilds.Inc()
		return NewGeneratorPlan(g)
	}
	built := false
	g.topo.planOnce.Do(func() {
		built = true
		metPlanBuilds.Inc()
		g.topo.plan = NewGeneratorPlan(g)
	})
	if !built {
		metPlanMemoHits.Inc()
	}
	return g.topo.plan
}

// GeneratorCSR assembles the CTMC generator in CSR form from the graph's
// rate edges without materializing a dense matrix. The CSR comes from ws
// (release with ws.PutCSR); a nil workspace allocates.
func (g *Graph) GeneratorCSR(ws *linalg.Workspace) (*linalg.CSR, error) {
	if g.NumStates() == 0 {
		return nil, ErrNoStates
	}
	return g.SparsePlan().Stamp(g, ws)
}

// GeneratorCSRTranspose assembles the transpose of the generator in CSR
// form; see GeneratorCSR.
func (g *Graph) GeneratorCSRTranspose(ws *linalg.Workspace) (*linalg.CSR, error) {
	if g.NumStates() == 0 {
		return nil, ErrNoStates
	}
	return g.SparsePlan().StampTranspose(g, ws)
}

// DetBranchTranspose returns the transpose of the clock branching matrix
// D (D[i][j] = probability that the deterministic firing in state i lands
// in tangible state j, zero rows for states without a deterministic
// transition) in CSR form, the operand of the gather x * D (see
// linalg.CSR.MulVecInto). The probabilities are rate-independent, so the
// matrix is built once per topology and shared read-only across Restamp
// siblings.
func (g *Graph) DetBranchTranspose() *linalg.CSR {
	if g.topo == nil {
		return buildDetTranspose(g)
	}
	g.topo.detOnce.Do(func() { g.topo.det = buildDetTranspose(g) })
	return g.topo.det
}

// buildDetTranspose lists each state's successors in schedule order and
// transposes stably, so a repeated successor adds in that order too.
func buildDetTranspose(g *Graph) *linalg.CSR {
	return (*linalg.Workspace)(nil).TransposeCSR(buildDetCSR(g))
}

func buildDetCSR(g *Graph) *linalg.CSR {
	n := g.NumStates()
	nnz := 0
	for _, sched := range g.Det {
		if sched != nil {
			nnz += len(sched.Successors)
		}
	}
	c := linalg.NewCSR(n, n, nnz)
	k := 0
	for i, sched := range g.Det {
		c.RowPtr[i] = k
		if sched == nil {
			continue
		}
		for _, pe := range sched.Successors {
			c.ColIdx[k] = pe.To
			c.Vals[k] = pe.Prob
			k++
		}
	}
	c.RowPtr[n] = k
	return c
}
