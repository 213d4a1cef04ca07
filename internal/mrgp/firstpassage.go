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

// MeanTimeToTarget returns the expected time until the clocked DSPN g,
// started from g.Initial, first enters a marking flagged in target. g must
// be in Solve's regeneration class; otherwise the typed class error
// (ErrNoDeterministic, ErrClockNotAlwaysEnabled, ErrMixedClocks) comes
// back instead of a value.
//
// Write A for the target markings and T for the rest. Zeroing the rows of
// Q that belong to A makes the target absorb between clock ticks, so one
// transient pair E = e^{Qτ}, U = ∫₀^τ e^{Qt}dt covers a whole period. At
// the ticks the branching matrix D is restricted to T before the product,
// so mass already in A never branches back out; the epoch kernel over T is
// P_TT = E_TT·D_TT, and h = U_TT·1 is the expected time spent in T during
// one period. The clock is freshly armed at t = 0, so the initial marking
// is an epoch state and
//
//	MTTO = α_T (I − P_TT)⁻¹ h,   α = g.Initial.
//
// The per-period exit mass is tiny on the paper's models (~1e-7), so the
// diagonal of I − P_TT is assembled GTH-style from the off-diagonal row
// mass plus the exactly accumulated exit mass, never as 1 − P_ii, which
// would lose those digits to cancellation.
func MeanTimeToTarget(ctx context.Context, ws *linalg.Workspace, g *petri.Graph, target []bool) (mtto float64, err error) {
	ctx, sp := obs.StartSpan(ctx, "mrgp.firstpassage")
	defer func() {
		sp.Err(err)
		sp.End()
	}()
	n := g.NumStates()
	sp.Int("states", int64(n))
	if n == 0 {
		return 0, petri.ErrNoStates
	}
	if len(target) != n {
		return 0, fmt.Errorf("mrgp: target marks %d states, graph has %d", len(target), n)
	}
	if !g.HasDeterministic() {
		return 0, ErrNoDeterministic
	}
	delay, err := commonDelay(g)
	if err != nil {
		return 0, err
	}
	if err := linalg.CtxError("mrgp.firstpassage", ctx); err != nil {
		return 0, err
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
		return 0, nil
	}
	if m == n {
		return 0, fmt.Errorf("%w: no target state in the graph", ErrTargetUnreachable)
	}

	q, err := g.GeneratorWS(ws)
	if err != nil {
		return 0, err
	}
	defer ws.PutMat(q)
	for s, hit := range target {
		if hit {
			for j := 0; j < n; j++ {
				q.Set(s, j, 0)
			}
		}
	}
	tm, um, err := transientPair(ws, q, delay)
	if err != nil {
		return 0, fmt.Errorf("transient pair: %w", err)
	}
	defer ws.PutMat(tm)
	defer ws.PutMat(um)

	// a = I − P_TT, built row by row together with h and the exit mass.
	a := linalg.NewDense(m, m)
	h := make([]float64, m)
	exit := make([]float64, m)
	for r, i := range trans {
		for j := 0; j < n; j++ {
			e := tm.At(i, j)
			if pos[j] < 0 {
				exit[r] += e
				continue
			}
			h[r] += um.At(i, j)
			if e == 0 {
				continue
			}
			for _, pe := range g.Det[j].Successors {
				if c := pos[pe.To]; c >= 0 {
					a.Add(r, c, -e*pe.Prob)
				} else {
					exit[r] += e * pe.Prob
				}
			}
		}
		diag := exit[r]
		for c := 0; c < m; c++ {
			if c != r {
				diag -= a.At(r, c)
			}
		}
		a.Set(r, r, diag)
	}
	if err := checkExits(g, trans, a, exit); err != nil {
		return 0, err
	}

	lu, err := linalg.Factorize(a)
	if err != nil {
		return 0, fmt.Errorf("mrgp: first-passage system: %w", err)
	}
	y, err := lu.Solve(h)
	if err != nil {
		return 0, fmt.Errorf("mrgp: first-passage system: %w", err)
	}
	for r, i := range trans {
		mtto += g.Initial[i] * y[r]
	}
	return mtto, nil
}

// checkExits verifies that every epoch state of T leaks mass into the
// target, directly or through other states of T; a closed class inside T
// makes I − P_TT singular and the mean time infinite. a holds I − P_TT
// with the kernel negated off the diagonal.
func checkExits(g *petri.Graph, trans []int, a *linalg.Dense, exit []float64) error {
	m := len(trans)
	reaches := make([]bool, m)
	queue := make([]int, 0, m)
	for r, e := range exit {
		if e > 0 {
			reaches[r] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for r := 0; r < m; r++ {
			if !reaches[r] && r != c && a.At(r, c) < 0 {
				reaches[r] = true
				queue = append(queue, r)
			}
		}
	}
	for r, ok := range reaches {
		if !ok {
			return fmt.Errorf("%w from state %s", ErrTargetUnreachable, g.Net.FormatMarking(g.Markings[trans[r]]))
		}
	}
	return nil
}
