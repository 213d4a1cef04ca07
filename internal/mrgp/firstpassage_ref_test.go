package mrgp_test

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"testing"

	"nvrel/internal/linalg"
	"nvrel/internal/mrgp"
	"nvrel/internal/nvp"
	"nvrel/internal/petri"
)

// refPrec is the mantissa width of the exact-arithmetic references. The
// largest mean time met below is ~3.5e30 s, which bounds the condition
// numbers by ~1e31 and leaves ~45 correct digits at 256 bits.
const refPrec = 256

func bigFloat() *big.Float { return new(big.Float).SetPrec(refPrec) }

// bigHittingTime solves the hitting-time system in refPrec-bit arithmetic
// by Gaussian elimination with partial pivoting and returns α·y. The
// system is given as state reduction sees it: w the off-diagonal kernel
// mass (its diagonal ignored), exit[r] the terms of row r's mass into the
// target, h the right-hand side. The diagonal Σ exit[r] + Σ_{c≠r} w[r][c]
// is formed exactly.
func bigHittingTime(w, exit [][]float64, h, alpha []float64) float64 {
	m := len(h)
	a := make([][]*big.Float, m)
	b := make([]*big.Float, m)
	for r := range a {
		a[r] = make([]*big.Float, m)
		diag := bigFloat()
		for _, e := range exit[r] {
			diag.Add(diag, bigFloat().SetFloat64(e))
		}
		for c := range a[r] {
			a[r][c] = bigFloat()
			if c != r {
				a[r][c].SetFloat64(-w[r][c])
				diag.Add(diag, bigFloat().SetFloat64(w[r][c]))
			}
		}
		a[r][r] = diag
		b[r] = bigFloat().SetFloat64(h[r])
	}
	tmp := bigFloat()
	for k := 0; k < m; k++ {
		p, best := k, new(big.Float).Abs(a[k][k])
		for i := k + 1; i < m; i++ {
			if v := new(big.Float).Abs(a[i][k]); v.Cmp(best) > 0 {
				p, best = i, v
			}
		}
		a[k], a[p] = a[p], a[k]
		b[k], b[p] = b[p], b[k]
		for i := k + 1; i < m; i++ {
			if a[i][k].Sign() == 0 {
				continue
			}
			f := bigFloat().Quo(a[i][k], a[k][k])
			for j := k + 1; j < m; j++ {
				a[i][j].Sub(a[i][j], tmp.Mul(f, a[k][j]))
			}
			b[i].Sub(b[i], tmp.Mul(f, b[k]))
		}
	}
	y := make([]*big.Float, m)
	sum := bigFloat()
	for k := m - 1; k >= 0; k-- {
		s := bigFloat().Set(b[k])
		for j := k + 1; j < m; j++ {
			s.Sub(s, tmp.Mul(a[k][j], y[j]))
		}
		y[k] = s.Quo(s, a[k][k])
	}
	for r, v := range alpha {
		sum.Add(sum, tmp.Mul(bigFloat().SetFloat64(v), y[r]))
	}
	v, _ := sum.Float64()
	return v
}

// TestMeanTimeToTargetMatchesExactReference pins the voter-outage first
// passage to an exact-arithmetic solve at points where the designs are
// reliable enough to defeat pivoted LU, which returned −1.5e18 s for the
// four-version N = 8, MTTC 9000 s model, a singular-matrix error at
// N = 12, and −1.5e19 s for the six-version N = 9 model (mean time ~7e19 s,
// some rows exiting with ~1e-22 of their diagonal mass per clock period).
// The four-version reference solves −Q_TT·y = 1 from the generator's own
// rates, the six-version one the assembled system I − P_TT; both form the
// diagonal exactly.
func TestMeanTimeToTargetMatchesExactReference(t *testing.T) {
	for _, c := range []struct {
		six  bool
		n    int
		mttc float64
	}{{false, 4, 1523}, {false, 8, 1523}, {false, 8, 9000}, {false, 12, 1523}, {true, 6, 1523}, {true, 9, 1523}} {
		build, p := nvp.BuildNoRejuvenation, nvp.DefaultFourVersion()
		if c.six {
			build, p = nvp.BuildWithRejuvenation, nvp.DefaultSixVersion()
		}
		p.N, p.MeanTimeToCompromise = c.n, c.mttc
		m, err := build(p)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s N=%d MTTC=%g", m.Arch, c.n, c.mttc)
		target := outageTarget(m)
		got, err := m.MeanTimeToVoterOutage()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		// The target above is the voter-outage set itself.
		if direct, err := mrgp.MeanTimeToTarget(nil, nil, m.Graph, target); err != nil || direct != got {
			t.Fatalf("%s: MeanTimeToTarget = %v, %v; want %v", name, direct, err, got)
		}
		var want float64
		if c.six {
			w, exit, h, alpha, err := mrgp.HittingSystem(m.Graph, target)
			if err != nil {
				t.Fatal(err)
			}
			exitTerms := make([][]float64, len(exit))
			for r, e := range exit {
				exitTerms[r] = []float64{e}
			}
			want = bigHittingTime(w, exitTerms, h, alpha)
		} else {
			q, err := m.Graph.Generator()
			if err != nil {
				t.Fatal(err)
			}
			n := m.Graph.NumStates()
			rates := make([][]float64, n)
			for i := range rates {
				rates[i] = make([]float64, n)
				for j := range rates[i] {
					if j != i {
						rates[i][j] = q.At(i, j)
					}
				}
			}
			want = bigHittingTime(rateSystem(rates, target, m.Graph.Initial))
		}
		if rel := math.Abs(got-want) / want; !(rel <= 1e-12) || got < 0 {
			t.Errorf("%s: MTTO = %.17g, exact %.17g (rel err %.2g)", name, got, want, rel)
		}
	}
}

// rateSystem is the hitting-time system of a CTMC given by its
// off-diagonal rates: w the rates within the non-target states, the rates
// into the target as exit terms, h = 1 and alpha the initial mass.
func rateSystem(rates [][]float64, target []bool, initial []float64) (w, exit [][]float64, h, alpha []float64) {
	var trans []int
	for i, hit := range target {
		if !hit {
			trans = append(trans, i)
		}
	}
	m := len(trans)
	w, exit = make([][]float64, m), make([][]float64, m)
	h, alpha = make([]float64, m), make([]float64, m)
	for r, i := range trans {
		w[r] = make([]float64, m)
		for c, j := range trans {
			w[r][c] = rates[i][j]
		}
		for j, hit := range target {
			if hit {
				exit[r] = append(exit[r], rates[i][j])
			}
		}
		h[r], alpha[r] = 1, initial[i]
	}
	return w, exit, h, alpha
}

// outageTarget flags the markings with fewer operational modules than the
// voter needs: failed plus rejuvenating modules past the scheme's outage
// count.
func outageTarget(m *nvp.Model) []bool {
	places := make(map[string]int)
	for i := 0; i < m.Net.NumPlaces(); i++ {
		places[m.Net.PlaceName(petri.PlaceRef(i))] = i
	}
	pmf := places["Pmf"]
	pmr, rejuvenates := places["Pmr"]
	scheme := m.Params.Scheme()
	target := make([]bool, m.Graph.NumStates())
	for s, mk := range m.Graph.Markings {
		down := mk[pmf]
		if rejuvenates {
			down += mk[pmr]
		}
		target[s] = scheme.Outage(down)
	}
	return target
}

// fuzzRate decodes one byte into an edge rate: no edge below 96, a
// NaN, +Inf or negative rate at the top three values, and otherwise a
// positive rate spread over eight decades (2^-13 to ~2^14).
func fuzzRate(b byte) float64 {
	switch {
	case b < 96:
		return 0
	case b == 253:
		return math.Inf(1)
	case b == 254:
		return -1
	case b == 255:
		return math.NaN()
	}
	return math.Ldexp(1+float64(b%6)/8, int(b-96)/6-13)
}

// fuzzChain decodes data into a clockless graph of n = 2..6 states, one
// per place of a token walk: data[0] picks n, the bits of data[1] the
// target set, data[2] the initial state, and one byte per ordered pair
// (i, j), i ≠ j, the rate of the edge i → j (missing bytes: no edge).
// The graph is assembled by hand so that invalid rates reach the solver.
func fuzzChain(data []byte) (g *petri.Graph, target []bool, rates [][]float64) {
	n := 2 + int(data[0])%5
	b := petri.NewBuilder("fuzz-chain")
	for i := 0; i < n; i++ {
		b.AddPlace(fmt.Sprintf("s%d", i), 0)
	}
	b.AddTransition(petri.Spec{Name: "idle", Kind: petri.Exponential, Rate: 1})
	net, _ := b.Build()
	g = &petri.Graph{Net: net, Initial: make([]float64, n), Det: make([]*petri.DetSchedule, n)}
	g.Initial[int(data[2])%n] = 1
	target = make([]bool, n)
	rates = make([][]float64, n)
	next := 3
	for i := 0; i < n; i++ {
		mk := make(petri.Marking, n)
		mk[i] = 1
		g.Markings = append(g.Markings, mk)
		target[i] = data[1]>>i&1 == 1
		rates[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if next < len(data) {
				rates[i][j] = fuzzRate(data[next])
			}
			next++
			if rates[i][j] != 0 {
				g.Exp = append(g.Exp, petri.RateEdge{From: i, To: j, Rate: rates[i][j]})
			}
		}
	}
	return g, target, rates
}

// stateReductionBound bounds the relative error of MeanTimeToTarget on an
// n-state CTMC, to first order in the unit roundoff u. State reduction
// forms only sums, products and quotients of non-negative numbers, whose
// relative errors add: rel(a+b) ≤ max(rel a, rel b) + u and rel(a·b),
// rel(a/b) ≤ rel a + rel b + u. With m ≤ n−1 non-target states:
//
//   - the rates are copied exactly and an exit mass sums at most n−1 of
//     them: ε₀ = (n−2)u;
//   - one elimination step sums a pivot of at most m terms (ε + (m−1)u),
//     divides by it (2ε + mu) and adds one product (3ε + (m+2)u), so
//     ε_{k+1} = 3ε_k + (m+2)u and E = ε_m after all m steps;
//   - back substitution divides a sum of at most m products by a pivot:
//     η_k = η_{k+1} + 2E + (m+1)u, so η₀ ≤ 2mE + m(m+1)u;
//   - α·y with a one-hot α is exact.
//
// The bound is doubled for the higher-order terms. At n = 6 it is ~4e-12,
// far inside the 1e-9 the fuzz target promises; the 256-bit reference
// itself is good to ~1e-60.
func stateReductionBound(n int) float64 {
	const u = 0x1p-53
	m := float64(n - 1)
	eps := float64(n-2) * u
	for k := 0; k < n-1; k++ {
		eps = 3*eps + (m+2)*u
	}
	return 2 * (2*m*eps + m*(m+1)*u)
}

// FuzzMeanTimeToTarget drives the CTMC first passage with arbitrary small
// rate matrices and target sets. Every input ends in a typed error
// (ErrTargetUnreachable, or the generator check's solve error for a NaN,
// infinite or negative rate) or in a finite, non-negative mean time within
// stateReductionBound (≤ 1e-9) of the exact solve.
func FuzzMeanTimeToTarget(f *testing.F) {
	f.Add([]byte{0, 2, 0, 200})                                     // 0 → 1
	f.Add([]byte{1, 4, 0, 150, 0, 120, 200, 0, 0})                  // birth chain
	f.Add([]byte{3, 16, 0, 255, 200, 0, 0, 0, 0, 0, 0, 0, 0, 0})    // NaN rate
	f.Add([]byte{2, 2, 0, 200, 150, 0, 0, 0, 0, 0, 100, 0, 0, 150}) // closed pair
	f.Add([]byte{4, 32, 0, 250, 100, 100, 100, 100, 100, 250, 100, 100, 100, 100, 100, 250, 100,
		100, 100, 100, 100, 250, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100}) // stiff ring
	if b := stateReductionBound(6); b > 1e-9 {
		f.Fatalf("derived error bound %g exceeds 1e-9", b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		g, target, rates := fuzzChain(data)
		n := len(target)
		got, err := mrgp.MeanTimeToTarget(nil, nil, g, target)

		hits, bad := 0, false
		for i, row := range rates {
			if target[i] {
				hits++
			}
			for _, r := range row {
				bad = bad || math.IsNaN(r) || math.IsInf(r, 0) || r < 0
			}
		}
		switch {
		case hits == n:
			if err != nil || got != 0 {
				t.Fatalf("all-target: MTTO = %v, %v; want 0", got, err)
			}
			return
		case hits == 0:
			if !errors.Is(err, mrgp.ErrTargetUnreachable) {
				t.Fatalf("no target: err = %v, want ErrTargetUnreachable", err)
			}
			return
		case bad:
			if se, ok := linalg.AsSolveError(err); !ok || se.Site != "linalg.generator" {
				t.Fatalf("invalid rate: MTTO = %v, err = %v; want a generator error", got, err)
			}
			return
		case !reachesTarget(rates, target):
			if !errors.Is(err, mrgp.ErrTargetUnreachable) {
				t.Fatalf("closed class: MTTO = %v, err = %v; want ErrTargetUnreachable", got, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("MTTO: %v", err)
		}
		want := bigHittingTime(rateSystem(rates, target, g.Initial))
		if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
			t.Fatalf("MTTO = %v, want finite and non-negative", got)
		}
		if d := math.Abs(got - want); d > stateReductionBound(n)*want {
			t.Fatalf("MTTO = %.17g, exact %.17g (rel err %.2g, bound %.2g)", got, want, d/want, stateReductionBound(n))
		}
	})
}

// reachesTarget reports whether every non-target state has a path of
// positive rates into the target.
func reachesTarget(rates [][]float64, target []bool) bool {
	reach := append([]bool(nil), target...)
	for changed := true; changed; {
		changed = false
		for i, row := range rates {
			for j, r := range row {
				if !reach[i] && reach[j] && r > 0 {
					reach[i], changed = true, true
				}
			}
		}
	}
	for _, ok := range reach {
		if !ok {
			return false
		}
	}
	return true
}
