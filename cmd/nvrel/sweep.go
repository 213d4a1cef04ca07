package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"nvrel"
	"nvrel/internal/linalg"
	"nvrel/internal/nvp"
	"nvrel/internal/obs"
	"nvrel/internal/parallel"
	"nvrel/internal/shadow"
)

// sweepSetters maps sweepable parameter names to setters.
var sweepSetters = map[string]func(*nvrel.Params, float64){
	"alpha":    func(p *nvrel.Params, v float64) { p.Alpha = v },
	"p":        func(p *nvrel.Params, v float64) { p.P = v },
	"pprime":   func(p *nvrel.Params, v float64) { p.PPrime = v },
	"mttc":     func(p *nvrel.Params, v float64) { p.MeanTimeToCompromise = v },
	"mttf":     func(p *nvrel.Params, v float64) { p.MeanTimeToFailure = v },
	"mttr":     func(p *nvrel.Params, v float64) { p.MeanTimeToRepair = v },
	"mtrj":     func(p *nvrel.Params, v float64) { p.MeanTimeToRejuvenate = v },
	"interval": func(p *nvrel.Params, v float64) { p.RejuvenationInterval = v },
}

func sweepParamNames() string {
	names := make([]string, 0, len(sweepSetters))
	for n := range sweepSetters {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// cmdSweep evaluates both architectures across a linear grid of one
// parameter — the generic version of the Figure 3/4 sweeps.
func cmdSweep(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(out)
	param := fs.String("param", "", "parameter to sweep: "+sweepParamNames())
	from := fs.Float64("from", 0, "first value")
	to := fs.Float64("to", 0, "last value")
	steps := fs.Int("steps", 10, "number of grid points (>= 2)")
	csv := fs.Bool("csv", false, "emit CSV")
	keepGoing := fs.Bool("keep-going", false, "report per-point errors instead of aborting on the first failure")
	shadowRate := fs.Float64("shadow-rate", 0, "shadow-verify this fraction of grid solves on an independent solver path; any divergence fails the sweep")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set, ok := sweepSetters[*param]
	if !ok {
		return fmt.Errorf("sweep: unknown parameter %q (have %s)", *param, sweepParamNames())
	}
	if *steps < 2 {
		return fmt.Errorf("sweep: steps = %d must be at least 2", *steps)
	}
	if !(*to > *from) {
		return fmt.Errorf("sweep: need from < to, got [%g, %g]", *from, *to)
	}
	rejuvenationOnly := *param == "interval" || *param == "mtrj"

	// Solve every grid point in parallel, reusing the explored reachability
	// graph across points, then print in grid order. By default the
	// context-aware pool drains in-flight points on the first hard error and
	// aborts with a non-zero exit; with -keep-going every point settles with
	// its own outcome through the hardened pool and failures are reported
	// per row.
	type sweepPoint struct {
		v, e4, e6 float64
		err       error
	}
	cache := nvrel.NewModelCache()
	arena := linalg.NewArena()
	var ver *shadow.Verifier
	if *shadowRate > 0 {
		ver = shadow.New(shadow.Config{Rate: *shadowRate, Workers: 2, Source: "sweep"})
		defer ver.Close()
	}
	points := make([]sweepPoint, *steps)
	solvePoint := func(ctx context.Context, i int) (err error) {
		v := *from + (*to-*from)*float64(i)/float64(*steps-1)
		points[i].v = v
		ws := arena.Get()
		defer arena.Put(ws)
		ctx, sp := obs.StartSpan(ctx, "sweep.point")
		sp.Int("index", int64(i)).Float("value", v).Str("param", *param)
		defer func() {
			sp.Err(err)
			sp.End()
		}()

		e4 := math.NaN()
		if !rejuvenationOnly {
			p4 := nvrel.DefaultFourVersion()
			set(&p4, v)
			m4, err := cache.BuildNoRejuvenation(p4)
			if err != nil {
				return fmt.Errorf("sweep: four-version at %s=%g: %w", *param, v, err)
			}
			if e4, err = solveShadowed(ctx, "sweep", "4v", m4, ws, ver); err != nil {
				return fmt.Errorf("sweep: four-version at %s=%g: %w", *param, v, err)
			}
		}

		p6 := nvrel.DefaultSixVersion()
		set(&p6, v)
		m6, err := cache.BuildWithRejuvenation(p6)
		if err != nil {
			return fmt.Errorf("sweep: six-version at %s=%g: %w", *param, v, err)
		}
		e6, err := solveShadowed(ctx, "sweep", "6v", m6, ws, ver)
		if err != nil {
			return fmt.Errorf("sweep: six-version at %s=%g: %w", *param, v, err)
		}
		points[i].e4, points[i].e6 = e4, e6
		return nil
	}
	failed := 0
	if *keepGoing {
		errs := parallel.ForEachHardened(context.Background(), *steps, solvePoint, parallel.HardenedOptions{})
		for i, err := range errs {
			if err != nil {
				points[i].err = err
				failed++
			}
		}
	} else if err := parallel.ForEachCtx(context.Background(), *steps, solvePoint); err != nil {
		return err
	}

	if *csv {
		fmt.Fprintf(out, "%s,four_version,six_version\n", *param)
	} else {
		fmt.Fprintf(out, "sweep of %s over [%g, %g] (%d points)\n", *param, *from, *to, *steps)
		fmt.Fprintf(out, "  %-12s %-12s %-12s\n", *param, "E[R_4v]", "E[R_6v]")
	}
	for _, pt := range points {
		if pt.err != nil {
			if *csv {
				fmt.Fprintf(out, "%.6g,error,error\n", pt.v)
			} else {
				fmt.Fprintf(out, "  %-12.6g error: %v\n", pt.v, pt.err)
			}
			continue
		}
		f4 := ""
		if !math.IsNaN(pt.e4) {
			f4 = fmt.Sprintf("%.7f", pt.e4)
		}
		if *csv {
			fmt.Fprintf(out, "%.6g,%s,%.7f\n", pt.v, f4, pt.e6)
		} else {
			if f4 == "" {
				f4 = "-"
			}
			fmt.Fprintf(out, "  %-12.6g %-12s %-12.7f\n", pt.v, f4, pt.e6)
		}
	}
	if ver != nil {
		ver.Flush()
		st := ver.Stats()
		if !*csv {
			fmt.Fprintf(out, "sweep: shadow sampled %d  agree %d  diverge %d  skipped %d  errors %d\n",
				st.Sampled, st.Agree, st.Diverge, st.Skipped, st.Errors)
		}
		if st.Diverge > 0 {
			return fmt.Errorf("sweep: %d shadow divergence(s): independent solver paths disagree beyond tolerance", st.Diverge)
		}
	}
	if failed > 0 {
		return fmt.Errorf("sweep: %d of %d points failed", failed, *steps)
	}
	return nil
}

// solveShadowed solves one grid point on the caller's workspace with full
// diagnostics, files its compute record, and offers the result to the
// sweep's shadow sampler.
func solveShadowed(ctx context.Context, source, arch string, m *nvrel.Model, ws *linalg.Workspace, ver *shadow.Verifier) (float64, error) {
	start := time.Now()
	pi, diag, err := m.SolveWith(ctx, ws, nvp.Opts{})
	if err != nil {
		return 0, err
	}
	rel, err := m.ExpectedPaperReliabilityFrom(pi)
	if err != nil {
		return 0, err
	}
	noteShadowSolve(ctx, source, arch, m, pi, rel, diag, time.Since(start), ver)
	return rel, nil
}
