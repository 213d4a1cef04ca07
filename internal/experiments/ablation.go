package experiments

import (
	"context"
	"fmt"
	"io"

	"nvrel/internal/linalg"
	"nvrel/internal/nvp"
	"nvrel/internal/parallel"
	"nvrel/internal/reliability"
)

// AblationRow is one modeling-choice comparison at the Table II defaults.
type AblationRow struct {
	Dimension   string
	Variant     string
	FourVersion float64
	SixVersion  float64
	Note        string
}

// RunAblations evaluates the modeling choices DESIGN.md calls out, each at
// the Table II defaults (extension experiment E11):
//
//   - reliability model: the paper's verbatim appendix formulas versus the
//     self-consistent dependent model versus the independence baseline;
//   - firing semantics: single-server (TimeNET default, used for the
//     published numbers) versus per-token;
//   - clock policy: free-running (guard g3 as printed) versus
//     waits-for-wave.
func RunAblations() ([]AblationRow, error) {
	var rows []AblationRow
	ctx := context.Background()
	memo := newSolveMemo()
	ws := getWS()
	defer putWS(ws)

	// Reliability-model choice.
	type rfChoice struct {
		name string
		make func(pr reliability.Params, s reliability.Scheme, n int) (reliability.StateFn, error)
		note string
	}
	verbatim := func(pr reliability.Params, _ reliability.Scheme, n int) (reliability.StateFn, error) {
		if n == 4 {
			return reliability.FourVersion(pr)
		}
		return reliability.SixVersion(pr)
	}
	dependent := func(pr reliability.Params, s reliability.Scheme, _ int) (reliability.StateFn, error) {
		return reliability.Dependent(pr, s)
	}
	independent := func(pr reliability.Params, s reliability.Scheme, _ int) (reliability.StateFn, error) {
		return reliability.Independent(pr, s)
	}
	for _, choice := range []rfChoice{
		{name: "verbatim appendix", make: verbatim, note: "reproduces the published numbers"},
		{name: "dependent (consistent)", make: dependent, note: "differs in R_{2,2,0}, R_{0,4,0}, R_{4,2,0}"},
		{name: "independent baseline", make: independent, note: "alpha ignored"},
	} {
		m4, err := solveCache.BuildNoRejuvenation(nvp.DefaultFourVersion())
		if err != nil {
			return nil, err
		}
		rf4, err := choice.make(m4.Params.Reliability(), m4.Params.Scheme(), 4)
		if err != nil {
			return nil, err
		}
		e4, err := expectedVia(ctx, memo, ws, m4, rf4)
		if err != nil {
			return nil, err
		}
		m6, err := solveCache.BuildWithRejuvenation(nvp.DefaultSixVersion())
		if err != nil {
			return nil, err
		}
		rf6, err := choice.make(m6.Params.Reliability(), m6.Params.Scheme(), 6)
		if err != nil {
			return nil, err
		}
		e6, err := expectedVia(ctx, memo, ws, m6, rf6)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Dimension: "reliability model", Variant: choice.name,
			FourVersion: e4, SixVersion: e6, Note: choice.note,
		})
	}

	// Firing semantics.
	for _, sem := range []nvp.ServerSemantics{nvp.SingleServer, nvp.PerToken} {
		p4 := nvp.DefaultFourVersion()
		p4.Semantics = sem
		e4, err := evalFourWS(ctx, memo, ws, p4)
		if err != nil {
			return nil, err
		}
		p6 := nvp.DefaultSixVersion()
		p6.Semantics = sem
		e6, err := evalSixWS(ctx, memo, ws, p6)
		if err != nil {
			return nil, err
		}
		note := "matches the paper (TimeNET default)"
		if sem == nvp.PerToken {
			note = "independent modules; far from the published numbers"
		}
		rows = append(rows, AblationRow{
			Dimension: "firing semantics", Variant: sem.String(),
			FourVersion: e4, SixVersion: e6, Note: note,
		})
	}

	// Clock policy (six-version only; the four-version model has no clock).
	for _, clock := range []nvp.ClockPolicy{nvp.ClockFreeRunning, nvp.ClockWaitsForWave} {
		p6 := nvp.DefaultSixVersion()
		p6.Clock = clock
		e6, err := evalSixWS(ctx, memo, ws, p6)
		if err != nil {
			return nil, err
		}
		e4, err := evalFourWS(ctx, memo, ws, nvp.DefaultFourVersion())
		if err != nil {
			return nil, err
		}
		note := "guard g3 as printed"
		if clock == nvp.ClockWaitsForWave {
			note = "clock held during waves; solved with the general MRGP solver"
		}
		rows = append(rows, AblationRow{
			Dimension: "clock policy", Variant: clock.String(),
			FourVersion: e4, SixVersion: e6, Note: note,
		})
	}
	return rows, nil
}

// expectedVia weighs m's memoized distribution with rf.
func expectedVia(ctx context.Context, memo *solveMemo, ws *linalg.Workspace, m *nvp.Model, rf reliability.StateFn) (float64, error) {
	pi, err := memo.solve(ctx, ws, m)
	if err != nil {
		return 0, err
	}
	return m.ExpectedReliabilityFrom(pi, rf)
}

// ReportAblations writes the E11 report.
func ReportAblations(w io.Writer) error {
	rows, err := RunAblations()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E11 (extension): modeling-choice ablations at Table II defaults")
	fmt.Fprintf(w, "  %-20s %-24s %-11s %-11s %s\n", "dimension", "variant", "E[R_4v]", "E[R_6v]", "note")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s %-24s %-11.7f %-11.7f %s\n", r.Dimension, r.Variant, r.FourVersion, r.SixVersion, r.Note)
	}
	return nil
}

// ArchitectureRow is one candidate N-version design.
type ArchitectureRow struct {
	N, F, R     int
	Rejuvenate  bool
	Threshold   int
	Reliability float64
}

// RunArchitectures evaluates every feasible (N, f, r) design with N up to
// maxN at the Table II defaults (extension experiment E12): the
// architecture-selection question the paper's conclusion raises.
func RunArchitectures(maxN int) ([]ArchitectureRow, error) {
	if maxN <= 0 {
		maxN = 9
	}
	// Enumerate the feasible designs first, then solve them in parallel;
	// rows land in enumeration order.
	type combo struct{ n, f, r int }
	var combos []combo
	for n := 1; n <= maxN; n++ {
		for f := 0; 3*f+1 <= n; f++ {
			combos = append(combos, combo{n, f, 0})
			for r := 1; 3*f+2*r+1 <= n; r++ {
				combos = append(combos, combo{n, f, r})
			}
		}
	}
	// Designs that differ only in f share a generator and one solve.
	memo := newSolveMemo()
	rows := make([]ArchitectureRow, len(combos))
	err := parallel.ForEachCtx(context.Background(), len(combos), func(ctx context.Context, i int) error {
		c := combos[i]
		if c.r == 0 {
			p := nvp.DefaultFourVersion()
			p.N, p.F, p.R = c.n, c.f, 0
			e, err := evalFour(ctx, memo, p)
			if err != nil {
				return fmt.Errorf("n=%d f=%d: %w", c.n, c.f, err)
			}
			rows[i] = ArchitectureRow{N: c.n, F: c.f, Threshold: 2*c.f + 1, Reliability: e}
			return nil
		}
		p := nvp.DefaultSixVersion()
		p.N, p.F, p.R = c.n, c.f, c.r
		e, err := evalSix(ctx, memo, p)
		if err != nil {
			return fmt.Errorf("n=%d f=%d r=%d: %w", c.n, c.f, c.r, err)
		}
		rows[i] = ArchitectureRow{
			N: c.n, F: c.f, R: c.r, Rejuvenate: true,
			Threshold: 2*c.f + c.r + 1, Reliability: e,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ReportArchitectures writes the E12 report.
func ReportArchitectures(w io.Writer) error {
	rows, err := RunArchitectures(9)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E12 (extension): every feasible (N, f, r) design at Table II defaults")
	fmt.Fprintf(w, "  %-4s %-3s %-3s %-14s %-10s %s\n", "N", "f", "r", "rejuvenation", "voter", "E[R_sys]")
	best := rows[0]
	for _, r := range rows {
		rejuv := "no"
		if r.Rejuvenate {
			rejuv = "yes"
		}
		fmt.Fprintf(w, "  %-4d %-3d %-3d %-14s %d-of-%-5d %.7f\n",
			r.N, r.F, r.R, rejuv, r.Threshold, r.N, r.Reliability)
		if r.Reliability > best.Reliability {
			best = r
		}
	}
	fmt.Fprintf(w, "  best design: N=%d f=%d r=%d (E[R_sys] = %.7f)\n", best.N, best.F, best.R, best.Reliability)
	return nil
}
