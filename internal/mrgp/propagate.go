package mrgp

import (
	"errors"
	"fmt"
	"math"

	"nvrel/internal/linalg"
	"nvrel/internal/petri"
)

// Transient input errors.
var (
	// ErrInvalidInput is returned for a negative or non-finite time or
	// killing rate, for a malformed initial or reward vector, and for an
	// accumulated reward asked of a killed propagator.
	ErrInvalidInput = errors.New("mrgp: invalid transient input")

	// ErrHorizonTooLong is returned when one propagation would take more
	// than maxHorizonSteps clock ticks or uniformization terms.
	ErrHorizonTooLong = errors.New("mrgp: transient horizon too long")
)

// maxHorizonSteps bounds the work of one propagation: the clock ticks of
// a clocked graph, the uniformization terms of a pure CTMC, and the terms
// of one clock period's series. E10's longest window needs ~2x10^5;
// past 10^7 the Poisson weight vector alone is 80 MB.
const maxHorizonSteps = 1e7

// Propagator computes transient distributions and accumulated rewards. It
// covers two process classes:
//
//   - a clock-synchronous DSPN (the class Solve handles: one deterministic
//     transition enabled in every tangible marking). Between clock ticks
//     the state evolves as e^{Q s}; at each tick the branching matrix D
//     applies, so
//
//     pi(t) = pi0 (e^{Q tau} D)^k e^{Q s},  t = k tau + s, 0 <= s < tau;
//
//   - a graph with no deterministic transition, a plain CTMC: the no-tick
//     case pi(t) = pi0 e^{Q t}.
//
// An optional killing vector replaces Q by the defective generator
// Q' = Q - diag(kill): the mass a propagated vector loses is then the
// probability that a kill event (rate kill[i] while in state i) occurred.
// Accumulated rewards are defined for the unkilled process only: the
// integral series restores its total mass to t, which a killed process
// does not keep.
//
// Every vector series runs through the CSR kernels over Q'ᵀ; a clocked
// graph additionally holds the one-period matrices e^{Q' tau} and
// Integral_0^tau e^{Q' s} ds and D in CSR. A pure CTMC never builds a dense
// matrix. A Propagator reuses private scratch and is not safe for
// concurrent use.
type Propagator struct {
	n      int
	killed bool          // kill was given: AccumulatedReward is refused
	rate   float64       // uniformization rate of Q'
	delay  float64       // clock period; 0 for a pure CTMC
	qt     *linalg.CSR   // Q'ᵀ
	dt     *linalg.CSR   // Dᵀ, the tick branching; nil for a pure CTMC
	tTau   *linalg.Dense // e^{Q' tau}; nil for a pure CTMC
	uTau   *linalg.Dense // Integral_0^tau e^{Q' s} ds; nil for a pure CTMC
	ws     *linalg.Workspace
}

// NewPropagator validates the graph and the killing vector and
// precomputes the operators. kill is nil or holds one finite,
// non-negative rate per tangible state.
func NewPropagator(g *petri.Graph, kill []float64) (*Propagator, error) {
	n := g.NumStates()
	if n == 0 {
		return nil, petri.ErrNoStates
	}
	if kill != nil && len(kill) != n {
		return nil, fmt.Errorf("%w: %d killing rates for %d states", ErrInvalidInput, len(kill), n)
	}
	for i, k := range kill {
		if !finiteNonNegative(k) {
			return nil, fmt.Errorf("%w: killing rate %g in state %d", ErrInvalidInput, k, i)
		}
	}
	qt, err := g.GeneratorCSRTranspose(nil)
	if err != nil {
		return nil, err
	}
	for i, k := range kill {
		qt.Vals[diagSlot(qt, i)] -= k
	}
	p := &Propagator{n: n, killed: kill != nil, rate: linalg.UniformizationRate(qt.MaxAbsDiag()), qt: qt, ws: linalg.NewWorkspace()}
	if !g.HasDeterministic() {
		return p, nil
	}
	if p.delay, err = commonDelay(g); err != nil {
		return nil, err
	}
	if p.rate*p.delay > maxHorizonSteps {
		return nil, fmt.Errorf("%w: %g uniformization terms per clock period", ErrHorizonTooLong, p.rate*p.delay)
	}
	q, err := g.Generator()
	if err != nil {
		return nil, err
	}
	for i, k := range kill {
		q.Add(i, i, -k)
	}
	// nil workspace: the propagator retains tTau/uTau, so they must not be
	// pooled scratch.
	if p.tTau, p.uTau, err = transientPair(nil, q, p.delay); err != nil {
		return nil, err
	}
	p.dt = g.DetBranchTranspose()
	return p, nil
}

// diagSlot returns the Vals index of entry (i, i); generator CSRs always
// materialize their diagonal.
func diagSlot(c *linalg.CSR, i int) int {
	for k := c.RowPtr[i]; k < c.RowPtr[i+1]; k++ {
		if c.ColIdx[k] == i {
			return k
		}
	}
	panic(fmt.Sprintf("mrgp: generator row %d has no diagonal entry", i))
}

// Delay returns the clock period, or 0 for a pure CTMC.
func (p *Propagator) Delay() float64 { return p.delay }

// Distribution returns the (sub-)distribution at time t >= 0 starting
// from pi0 with the clock freshly armed at time zero.
func (p *Propagator) Distribution(pi0 []float64, t float64) ([]float64, error) {
	if err := p.check(t, pi0); err != nil {
		return nil, err
	}
	cur := append([]float64(nil), pi0...)
	if p.delay > 0 {
		moved := p.ws.Vec(p.n)
		defer p.ws.PutVec(moved)
		for t >= p.delay {
			if err := p.tick(cur, moved); err != nil {
				return nil, err
			}
			t -= p.delay
		}
	}
	if t == 0 {
		return cur, nil
	}
	return p.ws.UniformizedPowerCSR(p.qt, cur, t, p.rate, truncationEpsilon, nil)
}

// AccumulatedReward returns Integral_0^t E[r(X_s)] ds starting from pi0,
// the expected reward accumulated over [0, t]. It needs a propagator
// built without killing rates.
func (p *Propagator) AccumulatedReward(pi0, reward []float64, t float64) (float64, error) {
	if err := p.check(t, pi0); err != nil {
		return 0, err
	}
	if p.killed {
		return 0, fmt.Errorf("%w: accumulated reward of a killed process", ErrInvalidInput)
	}
	if len(reward) != p.n {
		return 0, fmt.Errorf("%w: %d rewards for %d states", ErrInvalidInput, len(reward), p.n)
	}
	cur := p.ws.Vec(p.n)
	defer p.ws.PutVec(cur)
	occ := p.ws.Vec(p.n)
	defer p.ws.PutVec(occ)
	copy(cur, pi0)
	var total float64
	if p.delay > 0 {
		for t >= p.delay {
			if err := p.uTau.VecMulInto(occ, cur); err != nil {
				return 0, err
			}
			inc, err := linalg.Dot(occ, reward)
			if err != nil {
				return 0, err
			}
			total += inc
			if err := p.tick(cur, occ); err != nil {
				return 0, err
			}
			t -= p.delay
		}
	}
	if t > 0 {
		if _, err := p.ws.UniformizedIntegralCSR(p.qt, cur, t, p.rate, truncationEpsilon, occ); err != nil {
			return 0, err
		}
		inc, err := linalg.Dot(occ, reward)
		if err != nil {
			return 0, err
		}
		total += inc
	}
	return total, nil
}

// tick advances cur over one full clock period in place:
// cur <- cur e^{Q' tau} D, with scratch as the intermediate.
func (p *Propagator) tick(cur, scratch []float64) error {
	if err := p.tTau.VecMulInto(scratch, cur); err != nil {
		return err
	}
	return p.dt.MulVecInto(cur, scratch)
}

// check validates one call's time and initial vector, including the work
// bound: clock ticks for a clocked graph, series terms for a pure CTMC.
func (p *Propagator) check(t float64, pi0 []float64) error {
	if !finiteNonNegative(t) {
		return fmt.Errorf("%w: time %g", ErrInvalidInput, t)
	}
	steps := p.rate * t
	if p.delay > 0 {
		steps = t / p.delay
	}
	if steps > maxHorizonSteps {
		return fmt.Errorf("%w: time %g needs %g steps", ErrHorizonTooLong, t, steps)
	}
	if len(pi0) != p.n {
		return fmt.Errorf("%w: initial vector of length %d for %d states", ErrInvalidInput, len(pi0), p.n)
	}
	for i, v := range pi0 {
		if !finiteNonNegative(v) {
			return fmt.Errorf("%w: initial mass %g in state %d", ErrInvalidInput, v, i)
		}
	}
	return nil
}

func finiteNonNegative(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }
