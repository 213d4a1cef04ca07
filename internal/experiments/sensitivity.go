package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"nvrel/internal/nvp"
	"nvrel/internal/parallel"
)

// Elasticity quantifies one parameter's leverage on E[R_sys]: the
// normalized derivative (dE/E)/(dx/x), estimated by central differences
// with a 1% perturbation. |Elasticity| = 0.1 means a 10% parameter change
// moves the reliability by about 1%.
type Elasticity struct {
	Parameter   string
	FourVersion float64 // NaN when the parameter does not exist in the 4v model
	SixVersion  float64
}

// RunSensitivity computes elasticities of both architectures with respect
// to every Table II parameter at the defaults (extension experiment E15).
// The paper's Figure 4 sweeps four of these parameters qualitatively; the
// elasticities rank all of them on one scale.
func RunSensitivity() ([]Elasticity, error) {
	type param struct {
		name   string
		set    func(*nvp.Params, float64)
		get    func(nvp.Params) float64
		only6v bool
	}
	params := []param{
		{name: "alpha", set: func(p *nvp.Params, v float64) { p.Alpha = v }, get: func(p nvp.Params) float64 { return p.Alpha }},
		{name: "p", set: func(p *nvp.Params, v float64) { p.P = v }, get: func(p nvp.Params) float64 { return p.P }},
		{name: "p'", set: func(p *nvp.Params, v float64) { p.PPrime = v }, get: func(p nvp.Params) float64 { return p.PPrime }},
		{name: "1/lambda_c", set: func(p *nvp.Params, v float64) { p.MeanTimeToCompromise = v }, get: func(p nvp.Params) float64 { return p.MeanTimeToCompromise }},
		{name: "1/lambda", set: func(p *nvp.Params, v float64) { p.MeanTimeToFailure = v }, get: func(p nvp.Params) float64 { return p.MeanTimeToFailure }},
		{name: "1/mu", set: func(p *nvp.Params, v float64) { p.MeanTimeToRepair = v }, get: func(p nvp.Params) float64 { return p.MeanTimeToRepair }},
		{name: "1/mu_r", set: func(p *nvp.Params, v float64) { p.MeanTimeToRejuvenate = v }, get: func(p nvp.Params) float64 { return p.MeanTimeToRejuvenate }, only6v: true},
		{name: "1/gamma", set: func(p *nvp.Params, v float64) { p.RejuvenationInterval = v }, get: func(p nvp.Params) float64 { return p.RejuvenationInterval }, only6v: true},
	}

	const h = 0.01 // relative perturbation
	elasticity := func(base nvp.Params, pm param, solve func(nvp.Params) (float64, error)) (float64, error) {
		x := pm.get(base)
		lo, hi := base, base
		pm.set(&lo, x*(1-h))
		pm.set(&hi, x*(1+h))
		eLo, err := solve(lo)
		if err != nil {
			return 0, err
		}
		eHi, err := solve(hi)
		if err != nil {
			return 0, err
		}
		eMid, err := solve(base)
		if err != nil {
			return 0, err
		}
		return (eHi - eLo) / (2 * h) / eMid, nil
	}

	// Perturbing alpha, p or p' leaves the generator alone, so with the
	// memo those elasticities cost no solve beyond the shared base point.
	memo := newSolveMemo()
	out := make([]Elasticity, len(params))
	err := parallel.ForEachCtx(context.Background(), len(params), func(ctx context.Context, i int) error {
		solveFour := func(p nvp.Params) (float64, error) { return evalFour(ctx, memo, p) }
		solveSix := func(p nvp.Params) (float64, error) { return evalSix(ctx, memo, p) }
		pm := params[i]
		e := Elasticity{Parameter: pm.name, FourVersion: math.NaN()}
		if !pm.only6v {
			v, err := elasticity(nvp.DefaultFourVersion(), pm, solveFour)
			if err != nil {
				return fmt.Errorf("4v elasticity of %s: %w", pm.name, err)
			}
			e.FourVersion = v
		}
		v, err := elasticity(nvp.DefaultSixVersion(), pm, solveSix)
		if err != nil {
			return fmt.Errorf("6v elasticity of %s: %w", pm.name, err)
		}
		e.SixVersion = v
		out[i] = e
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		return math.Abs(out[i].SixVersion) > math.Abs(out[j].SixVersion)
	})
	return out, nil
}

// ReportSensitivity writes the E15 report.
func ReportSensitivity(w io.Writer) error {
	es, err := RunSensitivity()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E15 (extension): parameter elasticities of E[R_sys] at Table II defaults")
	fmt.Fprintln(w, "  elasticity = relative change of E[R] per relative change of the parameter")
	fmt.Fprintf(w, "  %-12s %-12s %-12s\n", "parameter", "4v", "6v")
	for _, e := range es {
		four := "-"
		if !math.IsNaN(e.FourVersion) {
			four = fmt.Sprintf("%+.5f", e.FourVersion)
		}
		fmt.Fprintf(w, "  %-12s %-12s %+.5f\n", e.Parameter, four, e.SixVersion)
	}
	fmt.Fprintln(w, "  (sorted by six-version leverage; positive means increasing the parameter helps)")
	return nil
}
