// Package experiments defines one runnable experiment per table and figure
// of the paper's evaluation (§V) plus the extensions documented in
// DESIGN.md: the headline comparison (E1), the Table II parameter listing
// (E2), the rejuvenation-interval sweep of Figure 3 (E3), the four
// sensitivity sweeps of Figure 4 (E4-E7), the simulation cross-check (E8),
// and the optimal-interval search (E9).
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"

	"nvrel/internal/linalg"
	"nvrel/internal/nvp"
	"nvrel/internal/parallel"
)

// Paper-reported reference values, used in reports and regression tests.
const (
	PaperFourVersion = 0.8233477
	PaperSixVersion  = 0.93464665
)

// Point is one sweep sample.
type Point struct {
	// X is the swept parameter value.
	X float64
	// FourVersion is E[R_4v] (NaN when the experiment has no 4v curve).
	FourVersion float64
	// SixVersion is E[R_6v] (NaN when the experiment has no 6v curve).
	SixVersion float64
}

// Series is a full sweep: the reproduction of one figure.
type Series struct {
	ID         string
	Title      string
	XLabel     string
	PaperClaim string
	Points     []Point
}

// evalFour solves the four-version system for params through memo, reusing
// the cached reachability graph, an arena workspace, and the warm-start
// registry.
func evalFour(ctx context.Context, memo *solveMemo, p nvp.Params) (float64, error) {
	ws := getWS()
	defer putWS(ws)
	return evalFourWS(ctx, memo, ws, p)
}

// evalFourWS is evalFour on a caller-held workspace (sweep drivers hold
// one workspace per pool worker; see forEachWS).
func evalFourWS(ctx context.Context, memo *solveMemo, ws *linalg.Workspace, p nvp.Params) (float64, error) {
	m, err := solveCache.BuildNoRejuvenation(p)
	if err != nil {
		return 0, err
	}
	return evalModel(ctx, memo, ws, m)
}

// evalSix solves the six-version system for params through memo, reusing
// the cached reachability graph, an arena workspace, and the warm-start
// registry.
func evalSix(ctx context.Context, memo *solveMemo, p nvp.Params) (float64, error) {
	ws := getWS()
	defer putWS(ws)
	return evalSixWS(ctx, memo, ws, p)
}

// evalSixWS is evalSix on a caller-held workspace.
func evalSixWS(ctx context.Context, memo *solveMemo, ws *linalg.Workspace, p nvp.Params) (float64, error) {
	m, err := solveCache.BuildWithRejuvenation(p)
	if err != nil {
		return 0, err
	}
	return evalModel(ctx, memo, ws, m)
}

// evalModel is the shared solve-and-weigh step of every experiment in this
// package: the memoized warm-registry solve (a passthrough for dense-routed
// models) followed by the paper reliability summation for m's own
// parameters over the solved distribution — bit-identical to the one-call
// ExpectedPaperReliability path (see ExpectedPaperReliabilityFrom).
func evalModel(ctx context.Context, memo *solveMemo, ws *linalg.Workspace, m *nvp.Model) (float64, error) {
	pi, err := memo.solve(ctx, ws, m)
	if err != nil {
		return 0, err
	}
	return m.ExpectedPaperReliabilityFrom(pi)
}

// Headline reproduces the §V-B default-parameter comparison (E1).
type Headline struct {
	FourVersion float64 // E[R_4v], paper: 0.8233477
	SixVersion  float64 // E[R_6v], paper: 0.93464665
	Improvement float64 // relative gain, paper: "superior to 13%"
}

// RunHeadline computes the headline numbers at the Table II defaults. The
// two architectures solve concurrently.
func RunHeadline() (Headline, error) {
	memo := newSolveMemo()
	var e4, e6 float64
	err := parallel.ForEachCtx(context.Background(), 2, func(ctx context.Context, i int) error {
		var err error
		if i == 0 {
			if e4, err = evalFour(ctx, memo, nvp.DefaultFourVersion()); err != nil {
				return fmt.Errorf("four-version: %w", err)
			}
			return nil
		}
		if e6, err = evalSix(ctx, memo, nvp.DefaultSixVersion()); err != nil {
			return fmt.Errorf("six-version: %w", err)
		}
		return nil
	})
	if err != nil {
		return Headline{}, err
	}
	return Headline{
		FourVersion: e4,
		SixVersion:  e6,
		Improvement: (e6 - e4) / e4,
	}, nil
}

// Fig3Grid is the paper's rejuvenation-interval sweep range (200-3000 s).
func Fig3Grid() []float64 {
	grid := make([]float64, 0, 29)
	for v := 200.0; v <= 3000; v += 100 {
		grid = append(grid, v)
	}
	return grid
}

// RunFig3 sweeps the rejuvenation interval for the six-version system.
func RunFig3(grid []float64) (Series, error) {
	if len(grid) == 0 {
		grid = Fig3Grid()
	}
	s := Series{
		ID:     "fig3",
		Title:  "Expected reliability vs rejuvenation interval (six-version)",
		XLabel: "1/gamma (s)",
		PaperClaim: "reliability declines as the interval grows beyond the optimum; " +
			"paper reports the maximum at 400-450 s",
	}
	memo := newSolveMemo()
	points := make([]Point, len(grid))
	err := forEachWS(len(grid), func(ctx context.Context, ws *linalg.Workspace, i int) error {
		tau := grid[i]
		p := nvp.DefaultSixVersion()
		p.RejuvenationInterval = tau
		e6, err := evalSixWS(ctx, memo, ws, p)
		if err != nil {
			return fmt.Errorf("tau=%g: %w", tau, err)
		}
		points[i] = Point{X: tau, FourVersion: math.NaN(), SixVersion: e6}
		return nil
	})
	if err != nil {
		return Series{}, err
	}
	s.Points = points
	return s, nil
}

// Fig4aGrid is the mean-time-to-compromise sweep.
func Fig4aGrid() []float64 {
	return []float64{200, 300, 400, 525, 600, 800, 1000, 1523, 2000, 3000, 4000, 5000, 6000, 8000, 10000, 12000}
}

// RunFig4a sweeps the mean time to compromise (1/lambda_c) for both
// systems.
func RunFig4a(grid []float64) (Series, error) {
	if len(grid) == 0 {
		grid = Fig4aGrid()
	}
	s := Series{
		ID:     "fig4a",
		Title:  "Expected reliability vs mean time to compromise",
		XLabel: "1/lambda_c (s)",
		PaperClaim: "four-version wins at both extremes (paper: 1/lambda_c < 525 s and " +
			"> 6000 s); six-version wins in between",
	}
	err := sweepBoth(&s, grid, func(p *nvp.Params, v float64) {
		p.MeanTimeToCompromise = v
	})
	return s, err
}

// Fig4bGrid is the error-dependency sweep (paper: 0.1 to 1).
func Fig4bGrid() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
}

// RunFig4b sweeps the error-probability dependency alpha.
func RunFig4b(grid []float64) (Series, error) {
	if len(grid) == 0 {
		grid = Fig4bGrid()
	}
	s := Series{
		ID:         "fig4b",
		Title:      "Expected reliability vs error dependency between modules",
		XLabel:     "alpha",
		PaperClaim: "small impact: ~1.5% drop for four-version, ~6.6% for six-version over [0.1, 1]",
	}
	err := sweepBoth(&s, grid, func(p *nvp.Params, v float64) { p.Alpha = v })
	return s, err
}

// Fig4cGrid is the healthy-inaccuracy sweep (paper: 0.01 to 0.2).
func Fig4cGrid() []float64 {
	return []float64{0.01, 0.02, 0.04, 0.06, 0.08, 0.1, 0.12, 0.14, 0.16, 0.18, 0.2}
}

// RunFig4c sweeps the healthy-module inaccuracy p.
func RunFig4c(grid []float64) (Series, error) {
	if len(grid) == 0 {
		grid = Fig4cGrid()
	}
	s := Series{
		ID:         "fig4c",
		Title:      "Expected reliability vs healthy-module inaccuracy",
		XLabel:     "p",
		PaperClaim: "six-version always wins but drops ~13% over [0.01, 0.2]; four-version drops ~5%",
	}
	err := sweepBoth(&s, grid, func(p *nvp.Params, v float64) { p.P = v })
	return s, err
}

// Fig4dGrid is the compromised-inaccuracy sweep.
func Fig4dGrid() []float64 {
	return []float64{0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.6, 0.7, 0.8}
}

// RunFig4d sweeps the compromised-module inaccuracy p'.
func RunFig4d(grid []float64) (Series, error) {
	if len(grid) == 0 {
		grid = Fig4dGrid()
	}
	s := Series{
		ID:         "fig4d",
		Title:      "Expected reliability vs compromised-module inaccuracy",
		XLabel:     "p'",
		PaperClaim: "rejuvenation (six-version) is beneficial only when p' > ~0.3",
	}
	err := sweepBoth(&s, grid, func(p *nvp.Params, v float64) { p.PPrime = v })
	return s, err
}

// sweepBoth evaluates both architectures over the grid in parallel,
// applying set to each architecture's default parameters. Points land in
// grid order and the returned error is the one a serial sweep would hit
// first (lowest grid index). Each pool worker holds one arena workspace
// for the whole sweep instead of checking one out per point, and the
// sweep's own memo solves a swept reward-only parameter (alpha, p, p')
// once per architecture.
func sweepBoth(s *Series, grid []float64, set func(*nvp.Params, float64)) error {
	memo := newSolveMemo()
	points := make([]Point, len(grid))
	err := forEachWS(len(grid), func(ctx context.Context, ws *linalg.Workspace, i int) error {
		v := grid[i]
		p4 := nvp.DefaultFourVersion()
		set(&p4, v)
		e4, err := evalFourWS(ctx, memo, ws, p4)
		if err != nil {
			return fmt.Errorf("%s: four-version at %g: %w", s.ID, v, err)
		}
		p6 := nvp.DefaultSixVersion()
		set(&p6, v)
		e6, err := evalSixWS(ctx, memo, ws, p6)
		if err != nil {
			return fmt.Errorf("%s: six-version at %g: %w", s.ID, v, err)
		}
		points[i] = Point{X: v, FourVersion: e4, SixVersion: e6}
		return nil
	})
	if err != nil {
		return err
	}
	s.Points = points
	return nil
}

// Crossovers returns the X positions where the six-version curve crosses
// the four-version curve (linear interpolation between grid points).
func (s Series) Crossovers() []float64 {
	var xs []float64
	for i := 1; i < len(s.Points); i++ {
		a, b := s.Points[i-1], s.Points[i]
		da := a.SixVersion - a.FourVersion
		db := b.SixVersion - b.FourVersion
		if math.IsNaN(da) || math.IsNaN(db) || da == 0 || da*db > 0 {
			continue
		}
		t := da / (da - db)
		xs = append(xs, a.X+t*(b.X-a.X))
	}
	return xs
}

// Best returns the point with the highest six-version reliability.
func (s Series) Best() (Point, error) {
	if len(s.Points) == 0 {
		return Point{}, errors.New("experiments: empty series")
	}
	best := s.Points[0]
	for _, p := range s.Points[1:] {
		if p.SixVersion > best.SixVersion {
			best = p
		}
	}
	return best, nil
}
