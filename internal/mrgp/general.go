package mrgp

import (
	"context"
	"errors"
	"fmt"

	"nvrel/internal/linalg"
	"nvrel/internal/obs"
	"nvrel/internal/petri"
)

// ErrNoTimedTransitions is returned when a state enables neither
// exponential nor deterministic transitions (an absorbing deadlock).
var ErrNoTimedTransitions = errors.New("mrgp: absorbing tangible marking (no timed transitions enabled)")

// SolveGeneral computes the steady-state distribution of a DSPN whose
// deterministic transitions may be enabled in only part of the state
// space, using the full Markov-regenerative treatment:
//
//   - a tangible state without a deterministic transition regenerates at
//     its first exponential firing (an ordinary CTMC sojourn);
//   - a tangible state with a deterministic transition d starts d's timer
//     (enabling memory policy). The subordinated CTMC runs until either
//     the timer expires at tau — d fires, followed by its immediate
//     cascade — or the chain leaves the set of states enabling d, which
//     discards the timer and regenerates immediately.
//
// The embedded Markov chain over regeneration points and the expected
// per-cycle state occupancies yield the time-stationary distribution by
// the Markov-regenerative ratio formula. Deterministic transitions with
// different delays are supported as long as at most one is enabled per
// marking (enforced by petri.Explore).
//
// When every tangible state enables the same deterministic transition the
// method reduces exactly to the clock-synchronous solver in Solve; Solve
// remains available because its regeneration period (the full clock
// period) is longer and therefore cheaper and better conditioned.
//
// Scratch comes from ws (nil allocates; see Solve for the reuse
// contract). ctx is used only for span parenting: the general solver has
// no iterative kernels worth cancelling, but its span must still nest
// under the caller's solve span so 6v ClockWaitsForWave traces stay one
// tree.
func SolveGeneral(ctx context.Context, ws *linalg.Workspace, g *petri.Graph) (sol *Solution, err error) {
	_, sp := obs.StartSpan(ctx, "mrgp.solve.general")
	sp.Int("states", int64(g.NumStates()))
	defer func() {
		sp.Err(err)
		sp.End()
	}()
	return solveGeneral(ws, g)
}

func solveGeneral(ws *linalg.Workspace, g *petri.Graph) (*Solution, error) {
	n := g.NumStates()
	if n == 0 {
		return nil, petri.ErrNoStates
	}
	if !g.HasDeterministic() {
		return nil, ErrNoDeterministic
	}
	metSolveGeneral.Inc()

	q, err := g.GeneratorWS(ws)
	if err != nil {
		return nil, err
	}
	defer ws.PutMat(q)

	// Group deterministic-enabled states by (transition, delay).
	type groupKey struct {
		tr    petri.TransitionRef
		delay float64
	}
	groups := make(map[groupKey][]int)
	var maxDelay float64
	for s, sched := range g.Det {
		if sched == nil {
			continue
		}
		k := groupKey{tr: sched.Transition, delay: sched.Delay}
		groups[k] = append(groups[k], s)
		if sched.Delay > maxDelay {
			maxDelay = sched.Delay
		}
	}

	// kernel[s][s'] = embedded-chain transition probability;
	// occupancy[s][u] = expected time in u during s's regeneration period.
	kernel := ws.Mat(n, n)
	defer ws.PutMat(kernel)
	occupancy := ws.Mat(n, n)
	defer ws.PutMat(occupancy)

	// Exponential-only states: one CTMC sojourn.
	for s := 0; s < n; s++ {
		if g.Det[s] != nil {
			continue
		}
		exitRate := -q.At(s, s)
		if exitRate <= 0 {
			return nil, fmt.Errorf("%w: state %s", ErrNoTimedTransitions, g.Net.FormatMarking(g.Markings[s]))
		}
		for sp := 0; sp < n; sp++ {
			if sp == s {
				continue
			}
			if rate := q.At(s, sp); rate > 0 {
				kernel.Set(s, sp, rate/exitRate)
			}
		}
		occupancy.Set(s, s, 1/exitRate)
	}

	// Deterministic groups: subordinated CTMC with absorption outside the
	// group, truncated at the group's delay.
	for key, members := range groups {
		inGroup := make([]bool, n)
		for _, s := range members {
			inGroup[s] = true
		}
		// Absorbing generator: rows outside the group are zeroed.
		qa := ws.Mat(n, n)
		qa.CopyFrom(q)
		for s := 0; s < n; s++ {
			if !inGroup[s] {
				for j := 0; j < n; j++ {
					qa.Set(s, j, 0)
				}
			}
		}
		tm, um, err := transientPair(ws, qa, key.delay)
		ws.PutMat(qa)
		if err != nil {
			return nil, fmt.Errorf("group %q/%g: %w", g.Net.TransitionName(key.tr), key.delay, err)
		}
		for _, s := range members {
			// Occupancy: time spent in group states before absorption or
			// timer expiry. Columns outside the group accumulate parked
			// time after absorption and are not counted here (those
			// states run their own regeneration periods).
			for _, u := range members {
				occupancy.Set(s, u, um.At(s, u))
			}
			// Kernel part 1: absorbed before the timer expired.
			for sp := 0; sp < n; sp++ {
				if !inGroup[sp] {
					kernel.Add(s, sp, tm.At(s, sp))
				}
			}
			// Kernel part 2: timer expired in state u; d fires and its
			// immediate cascade branches.
			for _, u := range members {
				pu := tm.At(s, u)
				if pu <= 0 {
					continue
				}
				for _, succ := range g.Det[u].Successors {
					kernel.Add(s, succ.To, pu*succ.Prob)
				}
			}
		}
		ws.PutMat(tm)
		ws.PutMat(um)
	}

	// The deterministic firing (or absorption) can return to the same
	// state, so the embedded kernel may carry self-loops — each
	// regeneration epoch is an epoch regardless of whether the state
	// changed, and the Markov-regenerative ratio formula uses the
	// self-loop-inclusive stationary vector.
	sigma, err := embeddedStationary(ws, kernel)
	if err != nil {
		return nil, fmt.Errorf("embedded chain: %w", err)
	}
	pi := make([]float64, n)
	if err := occupancy.VecMulInto(pi, sigma); err != nil {
		return nil, err
	}
	for i, v := range pi {
		if v < 0 {
			if v < -linalg.NegativeTol {
				return nil, &linalg.SolveError{Site: "mrgp.general", Kind: linalg.FailNegative, Index: i, Value: v, Residual: -v,
					Err: fmt.Errorf("mrgp: negative occupancy %g in state %d", v, i)}
			}
			pi[i] = 0
		}
	}
	linalg.Normalize(pi)
	sol := &Solution{Pi: pi, Embedded: sigma, Delay: maxDelay}
	if err := validateSolution("mrgp.general", sol); err != nil {
		return nil, err
	}
	return sol, nil
}
