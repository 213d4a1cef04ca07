package nvp

import (
	"math"
	"testing"

	"nvrel/internal/linalg"
	"nvrel/internal/petri"
	"nvrel/internal/reliability"
)

// The transient code paths as they were before every transient measure
// went through mrgp.Propagator, kept as references:
//
//   - refUniformizedPower/refUniformizedIntegral are the dense-input
//     uniformization series (P = I + Q/rate built from the dense
//     generator, gathered over Pᵀ);
//   - refTransient4v/refMission4v are the CTMC branches of
//     TransientReliability/MissionReliability, which routed on
//     linalg.SparseThreshold;
//   - refClocked is the survival tick loop: one dense-input series per
//     clock period, then the dense branching matrix. It doubles as the
//     six-version transient reference, and refClockedReward is the old
//     clocked propagator's accumulated-reward loop over the same
//     per-period series.
//
// TestTransientMatchesReference pins the propagator to them.

func refUniformizedPower(q *linalg.Dense, pi []float64, t float64) ([]float64, error) {
	n, _ := q.Dims()
	dst := make([]float64, n)
	rate := linalg.UniformizationRate(q.MaxAbsDiag())
	if rate == 0 || t == 0 {
		copy(dst, pi)
		return dst, nil
	}
	pt := refUniformizedDTMCT(q, rate)
	weights, right := linalg.PoissonWeights(rate*t, 1e-12)
	cur := append([]float64(nil), pi...)
	next := make([]float64, n)
	for k := 0; k <= right; k++ {
		w := weights[k]
		for i := range dst {
			dst[i] += w * cur[i]
		}
		if k == right {
			break
		}
		if err := pt.MulVecInto(next, cur); err != nil {
			return nil, err
		}
		cur, next = next, cur
	}
	return dst, nil
}

func refUniformizedIntegral(q *linalg.Dense, pi []float64, t float64) ([]float64, error) {
	n, _ := q.Dims()
	dst := make([]float64, n)
	if t == 0 {
		return dst, nil
	}
	rate := linalg.UniformizationRate(q.MaxAbsDiag())
	if rate == 0 {
		for i := range dst {
			dst[i] = t * pi[i]
		}
		return dst, nil
	}
	pt := refUniformizedDTMCT(q, rate)
	weights, right := linalg.PoissonWeights(rate*t, 1e-12)
	tail := make([]float64, right+1)
	acc := 0.0
	for k := 0; k <= right; k++ {
		acc += weights[k]
		tail[k] = 1 - acc
		if tail[k] < 0 {
			tail[k] = 0
		}
	}
	cur := append([]float64(nil), pi...)
	next := make([]float64, n)
	for k := 0; k <= right; k++ {
		w := tail[k] / rate
		for i := range dst {
			dst[i] += w * cur[i]
		}
		if k == right {
			break
		}
		if err := pt.MulVecInto(next, cur); err != nil {
			return nil, err
		}
		cur, next = next, cur
	}
	var total float64
	for _, v := range dst {
		total += v
	}
	if total > 0 {
		if scale := t / total; math.Abs(scale-1) < 1e-6 {
			for i := range dst {
				dst[i] *= scale
			}
		}
	}
	return dst, nil
}

// refUniformizedDTMCT returns Pᵀ for P = I + Q/rate.
func refUniformizedDTMCT(q *linalg.Dense, rate float64) *linalg.CSR {
	n, _ := q.Dims()
	p := q.Clone()
	p.Scale(1 / rate)
	for i := 0; i < n; i++ {
		p.Add(i, i, 1)
	}
	return linalg.CSRFromDenseT(p)
}

func refTransient4v(g *petri.Graph, reward, times []float64) ([]float64, error) {
	var (
		q   *linalg.Dense
		qt  *linalg.CSR
		ws  *linalg.Workspace
		err error
	)
	if g.NumStates() >= linalg.SparseThreshold {
		qt, err = g.GeneratorCSRTranspose(nil)
	} else {
		q, err = g.Generator()
	}
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(times))
	for i, t := range times {
		var pi []float64
		if qt != nil {
			pi, err = ws.UniformizedPowerCSR(qt, g.Initial, t, 0, 1e-12, nil)
		} else {
			pi, err = refUniformizedPower(q, g.Initial, t)
		}
		if err != nil {
			return nil, err
		}
		if out[i], err = linalg.Dot(pi, reward); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func refMission4v(g *petri.Graph, reward, windows []float64) ([]float64, error) {
	out := make([]float64, len(windows))
	for i, t := range windows {
		var occ []float64
		if g.NumStates() >= linalg.SparseThreshold {
			qt, err := g.GeneratorCSRTranspose(nil)
			if err != nil {
				return nil, err
			}
			var ws *linalg.Workspace
			if occ, err = ws.UniformizedIntegralCSR(qt, g.Initial, t, 0, 1e-12, nil); err != nil {
				return nil, err
			}
		} else {
			q, err := g.Generator()
			if err != nil {
				return nil, err
			}
			if occ, err = refUniformizedIntegral(q, g.Initial, t); err != nil {
				return nil, err
			}
		}
		acc, err := linalg.Dot(occ, reward)
		if err != nil {
			return nil, err
		}
		out[i] = acc / t
	}
	return out, nil
}

// refGenerator returns the dense generator minus diag(kill) and, for a
// clocked graph, the dense tick branching matrix and the clock period.
func refGenerator(t *testing.T, m *Model, kill []float64) (q, d *linalg.Dense, tau float64) {
	t.Helper()
	q, err := m.Graph.Generator()
	if err != nil {
		t.Fatal(err)
	}
	for s, k := range kill {
		q.Add(s, s, -k)
	}
	if m.Arch != WithRejuvenation {
		return q, nil, 0
	}
	n := m.Graph.NumStates()
	d = linalg.NewDense(n, n)
	for s, sched := range m.Graph.Det {
		if sched == nil {
			t.Fatalf("state %d lacks a clock schedule", s)
		}
		for _, pe := range sched.Successors {
			d.Add(s, pe.To, pe.Prob)
		}
	}
	return q, d, m.Params.RejuvenationInterval
}

// refClocked is the survival tick loop: the vector at time t from the
// initial distribution (d == nil: no clock).
func refClocked(q, d *linalg.Dense, tau float64, init []float64, t float64) ([]float64, error) {
	cur := append([]float64(nil), init...)
	var err error
	if d != nil {
		for t >= tau {
			moved, err := refUniformizedPower(q, cur, tau)
			if err != nil {
				return nil, err
			}
			if cur, err = d.VecMul(moved); err != nil {
				return nil, err
			}
			t -= tau
		}
	}
	if t > 0 {
		if cur, err = refUniformizedPower(q, cur, t); err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// refClockedReward is the old clocked propagator's accumulated-reward loop
// with each period's occupancy and transition taken as vector series.
func refClockedReward(q, d *linalg.Dense, tau float64, init, reward []float64, t float64) (float64, error) {
	var total float64
	cur := append([]float64(nil), init...)
	for t >= tau {
		occ, err := refUniformizedIntegral(q, cur, tau)
		if err != nil {
			return 0, err
		}
		inc, err := linalg.Dot(occ, reward)
		if err != nil {
			return 0, err
		}
		total += inc
		moved, err := refUniformizedPower(q, cur, tau)
		if err != nil {
			return 0, err
		}
		if cur, err = d.VecMul(moved); err != nil {
			return 0, err
		}
		t -= tau
	}
	if t > 0 {
		occ, err := refUniformizedIntegral(q, cur, t)
		if err != nil {
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

// refTransientGrid is the E10 sampling grid (experiments.TransientGrid).
func refTransientGrid() []float64 {
	var grid []float64
	for t := 0.0; t <= 3000; t += 150 {
		grid = append(grid, t)
	}
	return append(grid, 4000, 6000, 9000, 15000, 25000, 40000, 80000, 150000)
}

// TestTransientMatchesReference: E[R(t)] on the E10 grid, the mission
// averages over the E10 windows and the E17 survival probabilities agree
// with the reference loops, for the paper's four- and six-version models
// and a four-version model above SparseThreshold. At that size the old
// transient and mission branches already ran the CSR series, so the first
// hour of the grid and missions covers them there.
//
// The bound is 2e-12. The survival values agree within 1.1e-14; the long
// horizons differ more, growing linearly with the series length up to
// 1.05e-12 at the paper four-version model's t = 150000 s (9.9e-13 for
// the six-version 7-day mission). That drift is the reference's: its
// P = I + Q/rate is rounded once and then applied ~5e4 times. At that t
// the four-version chain has long mixed, and the CSR series stays within
// 2e-13 of the GTH steady state while the reference is 1.1e-12 away; the
// steady-state check below pins that.
func TestTransientMatchesReference(t *testing.T) {
	const tol = 2e-12
	missions := []float64{600, 3600, 4 * 3600, 24 * 3600, 7 * 24 * 3600}
	windows := []float64{600, 1200, 2400, 3600, 2 * 3600, 4 * 3600}
	const requestRate = 1.0 / 120

	grid := refTransientGrid()
	big := DefaultFourVersion()
	big.N = 24
	cases := []struct {
		name           string
		build          func(Params) (*Model, error)
		p              Params
		grid, missions []float64
	}{
		{"4v", BuildNoRejuvenation, DefaultFourVersion(), grid, missions},
		{"6v", BuildWithRejuvenation, DefaultSixVersion(), grid, missions},
		{"4v-N24", BuildNoRejuvenation, big, grid[:21], missions[:2]},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := c.build(c.p)
			if err != nil {
				t.Fatal(err)
			}
			if c.name == "4v-N24" && m.Graph.NumStates() < linalg.SparseThreshold {
				t.Fatalf("%d states, want at least SparseThreshold = %d", m.Graph.NumStates(), linalg.SparseThreshold)
			}
			rf, err := m.PaperReliability()
			if err != nil {
				t.Fatal(err)
			}
			reward := m.rewardVector(rf)
			check := func(what string, x, got, want float64) {
				t.Helper()
				if d := math.Abs(got - want); !(d <= tol) {
					t.Errorf("%s at %g: %.17g, reference %.17g (|diff| %.3g)", what, x, got, want, d)
				}
			}

			grid, missions := c.grid, c.missions
			gotR, err := m.TransientReliability(rf, grid)
			if err != nil {
				t.Fatal(err)
			}
			gotM, err := m.MissionReliability(rf, missions)
			if err != nil {
				t.Fatal(err)
			}
			var wantR, wantM []float64
			if m.Arch == WithRejuvenation {
				q, d, tau := refGenerator(t, m, nil)
				for _, x := range grid {
					pi, err := refClocked(q, d, tau, m.Graph.Initial, x)
					if err != nil {
						t.Fatal(err)
					}
					r, err := linalg.Dot(pi, reward)
					if err != nil {
						t.Fatal(err)
					}
					wantR = append(wantR, r)
				}
				for _, x := range missions {
					acc, err := refClockedReward(q, d, tau, m.Graph.Initial, reward, x)
					if err != nil {
						t.Fatal(err)
					}
					wantM = append(wantM, acc/x)
				}
			} else {
				if wantR, err = refTransient4v(m.Graph, reward, grid); err != nil {
					t.Fatal(err)
				}
				if wantM, err = refMission4v(m.Graph, reward, missions); err != nil {
					t.Fatal(err)
				}
			}
			for i, x := range grid {
				check("E[R(t)]", x, gotR[i], wantR[i])
			}
			if c.name == "4v" {
				ss, err := m.ExpectedPaperReliability()
				if err != nil {
					t.Fatal(err)
				}
				last := len(grid) - 1
				if d := math.Abs(gotR[last] - ss); !(d <= 2e-13) {
					t.Errorf("E[R(%g)] = %.17g is %.3g from the steady state %.17g", grid[last], gotR[last], d, ss)
				}
			}
			for i, x := range missions {
				check("mission average", x, gotM[i], wantM[i])
			}

			gen, err := reliability.Generative(m.Params.Reliability(), m.Params.Scheme())
			if err != nil {
				t.Fatal(err)
			}
			gotS, err := m.SurvivalProbability(gen, requestRate, windows)
			if err != nil {
				t.Fatal(err)
			}
			perr := m.ErrorProbability(gen)
			kill := make([]float64, m.Graph.NumStates())
			for s, mk := range m.Graph.Markings {
				kill[s] = requestRate * perr(m.classify(mk))
			}
			q, d, tau := refGenerator(t, m, kill)
			for i, x := range windows {
				pi, err := refClocked(q, d, tau, m.Graph.Initial, x)
				if err != nil {
					t.Fatal(err)
				}
				check("survival", x, gotS[i], linalg.Sum(pi))
			}
		})
	}
}
