package mrgp

import (
	"context"
	"errors"
	"fmt"

	"nvrel/internal/linalg"
	"nvrel/internal/obs"
	"nvrel/internal/petri"
)

// ErrTargetUnreachable is returned by MeanTimeToTarget when some
// non-target marking can never reach the target set, so the mean
// first-passage time is infinite.
var ErrTargetUnreachable = errors.New("mrgp: target set unreachable")

// MeanTimeToTarget returns the expected time until g, started from
// g.Initial, first enters a marking flagged in target. g is either a CTMC
// (no deterministic transition) or a clocked DSPN in Solve's regeneration
// class; otherwise the typed class error (ErrClockNotAlwaysEnabled,
// ErrMixedClocks) comes back instead of a value.
//
// Write A for the target markings and T for the rest. Both cases reduce to
// the hitting-time system (I − P_TT) y = h over a substochastic kernel P_TT
// and MTTO = α_T y, α = g.Initial:
//
//   - A CTMC is its own kernel in rate form: P_TT is the off-diagonal rates
//     q_ij within T, the exit mass of state i is Σ_{j∈A} q_ij and h = 1, so
//     the system is −Q_TT y = 1.
//   - A clocked DSPN is solved over clock epochs. Zeroing the rows of Q
//     that belong to A makes the target absorb between ticks, so one
//     transient pair E = e^{Qτ}, U = ∫₀^τ e^{Qt}dt covers a whole period.
//     At the ticks the branching matrix D is restricted to T, so mass
//     already in A never branches back out; the epoch kernel is
//     P_TT = E_TT·D_TT and h = U_TT·1 is the expected time spent in T
//     during one period. The clock is freshly armed at t = 0, so the
//     initial marking is an epoch state.
//
// The exit mass is tiny on reliable designs (~1e-7 per period on the
// paper's models), so the system is never formed as 1 − P_ii or solved by
// pivoted LU, whose eliminations subtract nearly equal numbers and lose
// every digit once the mean time is large. hitting.solve eliminates by
// state reduction instead, GTH-style: every quantity it forms is a sum of
// non-negative terms.
func MeanTimeToTarget(ctx context.Context, ws *linalg.Workspace, g *petri.Graph, target []bool) (mtto float64, err error) {
	ctx, sp := obs.StartSpan(ctx, "mrgp.firstpassage")
	defer func() {
		sp.Err(err)
		sp.End()
	}()
	sp.Int("states", int64(g.NumStates()))
	hs, err := newHitting(ctx, ws, g, target)
	if err != nil || hs == nil {
		return 0, err
	}
	defer ws.PutMat(hs.w)
	if err := hs.checkExits(g); err != nil {
		return 0, err
	}
	y, err := hs.solve()
	if err != nil {
		return 0, err
	}
	for r, i := range hs.trans {
		mtto += g.Initial[i] * y[r]
	}
	return mtto, nil
}

// newHitting validates g and target and assembles the hitting-time system
// over the non-target states. It returns a nil system when every state is
// a target (the mean time is zero). hs.w comes from ws; release it with
// ws.PutMat.
func newHitting(ctx context.Context, ws *linalg.Workspace, g *petri.Graph, target []bool) (*hitting, error) {
	n := g.NumStates()
	if n == 0 {
		return nil, petri.ErrNoStates
	}
	if len(target) != n {
		return nil, fmt.Errorf("mrgp: target marks %d states, graph has %d", len(target), n)
	}
	clocked := g.HasDeterministic()
	var delay float64
	if clocked {
		var err error
		if delay, err = commonDelay(g); err != nil {
			return nil, err
		}
	}
	if err := linalg.CtxError("mrgp.firstpassage", ctx); err != nil {
		return nil, err
	}

	// pos maps a state to its index within T, or -1 for target states.
	pos := make([]int, n)
	var trans []int
	for s, hit := range target {
		pos[s] = -1
		if !hit {
			pos[s] = len(trans)
			trans = append(trans, s)
		}
	}
	m := len(trans)
	if m == 0 {
		return nil, nil
	}
	if m == n {
		return nil, fmt.Errorf("%w: no target state in the graph", ErrTargetUnreachable)
	}

	q, err := g.GeneratorWS(ws)
	if err != nil {
		return nil, err
	}
	defer ws.PutMat(q)
	hs := &hitting{w: ws.Mat(m, m), exit: make([]float64, m), h: make([]float64, m), trans: trans}
	if clocked {
		err = hs.assembleEpochs(ws, g, q, pos, delay)
	} else {
		err = hs.assembleRates(q, pos)
	}
	if err != nil {
		ws.PutMat(hs.w)
		return nil, err
	}
	return hs, nil
}

// hitting is the system (I − P_TT) y = h in the form state reduction
// needs: w holds the kernel's off-diagonal mass P_TT (its diagonal is
// unused and stays zero), exit the mass each state of T sends into the
// target per step. The diagonal of I − P_TT is never stored; it is
// exit[r] + Σ_{c≠r} w[r][c].
type hitting struct {
	w       *linalg.Dense
	exit, h []float64
	trans   []int // the state of g behind each row
}

// assembleRates fills the system of a CTMC from its generator q, which
// must pass the generator check first: a NaN or negative rate would
// otherwise flow into the sums unnoticed.
func (hs *hitting) assembleRates(q *linalg.Dense, pos []int) error {
	if err := linalg.CheckGenerator(q, 1e-9*max(1, q.MaxAbs())); err != nil {
		return err
	}
	n, _ := q.Dims()
	for r, i := range hs.trans {
		hs.h[r] = 1
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if c := pos[j]; c >= 0 {
				hs.w.Set(r, c, q.At(i, j))
			} else {
				hs.exit[r] += q.At(i, j)
			}
		}
	}
	return nil
}

// assembleEpochs fills the system of a clocked DSPN over one clock period
// of length delay from its generator q (overwritten: the target rows are
// zeroed).
func (hs *hitting) assembleEpochs(ws *linalg.Workspace, g *petri.Graph, q *linalg.Dense, pos []int, delay float64) error {
	n, _ := q.Dims()
	for s, c := range pos {
		if c < 0 {
			for j := 0; j < n; j++ {
				q.Set(s, j, 0)
			}
		}
	}
	tm, um, err := transientPair(ws, q, delay)
	if err != nil {
		return fmt.Errorf("transient pair: %w", err)
	}
	defer ws.PutMat(tm)
	defer ws.PutMat(um)
	for r, i := range hs.trans {
		for j := 0; j < n; j++ {
			e := tm.At(i, j)
			if pos[j] < 0 {
				hs.exit[r] += e
				continue
			}
			hs.h[r] += um.At(i, j)
			if e == 0 {
				continue
			}
			for _, pe := range g.Det[j].Successors {
				if c := pos[pe.To]; c < 0 {
					hs.exit[r] += e * pe.Prob
				} else if c != r {
					hs.w.Add(r, c, e*pe.Prob)
				}
			}
		}
	}
	return nil
}

// checkExits verifies that every state of T leaks mass into the target,
// directly or through other states of T; a closed class inside T makes
// I − P_TT singular and the mean time infinite. It is also what keeps
// every pivot of solve positive.
func (hs *hitting) checkExits(g *petri.Graph) error {
	m := len(hs.trans)
	reaches := make([]bool, m)
	queue := make([]int, 0, m)
	for r, e := range hs.exit {
		if e > 0 {
			reaches[r] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for r := 0; r < m; r++ {
			if !reaches[r] && hs.w.At(r, c) > 0 {
				reaches[r] = true
				queue = append(queue, r)
			}
		}
	}
	for r, ok := range reaches {
		if !ok {
			return fmt.Errorf("%w from state %s", ErrTargetUnreachable, g.Net.FormatMarking(g.Markings[hs.trans[r]]))
		}
	}
	return nil
}

// solve returns y by state reduction, consuming the system. Eliminating
// state k folds its row into every remaining row i that enters it: with
// f = w[i][k]/d_k,
//
//	w[i][j] += f·w[k][j],  exit[i] += f·exit[k],  h[i] += f·h[k],
//
// and the pivot d_k = exit[k] + Σ_{j>k} w[k][j] is the remaining mass of
// row k rather than the updated diagonal, which would be a difference.
// The path i → k → i is dropped: it changes the diagonal only, and the
// diagonal is never stored. Back substitution then sums non-negative
// terms too, so every y[r] carries a small relative error however large
// it is.
func (hs *hitting) solve() ([]float64, error) {
	w, exit, h := hs.w, hs.exit, hs.h
	m := len(h)
	d := make([]float64, m)
	for k := 0; k < m; k++ {
		dk := exit[k]
		for j := k + 1; j < m; j++ {
			dk += w.At(k, j)
		}
		if !(dk > 0) {
			return nil, fmt.Errorf("%w: pivot %d of the first-passage system is %g", ErrTargetUnreachable, k, dk)
		}
		d[k] = dk
		for i := k + 1; i < m; i++ {
			wik := w.At(i, k)
			if wik == 0 {
				continue
			}
			f := wik / dk
			for j := k + 1; j < m; j++ {
				if j != i {
					w.Add(i, j, f*w.At(k, j))
				}
			}
			exit[i] += f * exit[k]
			h[i] += f * h[k]
		}
	}
	y := h
	for k := m - 1; k >= 0; k-- {
		s := h[k]
		for j := k + 1; j < m; j++ {
			s += w.At(k, j) * y[j]
		}
		y[k] = s / d[k]
	}
	return y, nil
}
