package nvp

import (
	"errors"
	"math"
	"testing"

	"nvrel/internal/reliability"
)

func TestSurvivalProbabilityBounds(t *testing.T) {
	for _, rejuv := range []bool{false, true} {
		m := buildArch(t, rejuv)
		rf, err := m.PaperReliability()
		if err != nil {
			t.Fatal(err)
		}
		windows := []float64{0, 600, 3600, 24 * 3600}
		ps, err := m.SurvivalProbability(rf, 1.0/120, windows)
		if err != nil {
			t.Fatalf("rejuv=%v: %v", rejuv, err)
		}
		prev := 1.0
		for i, window := range windows {
			p := ps[i]
			if p < 0 || p > 1+1e-12 {
				t.Errorf("rejuv=%v: P(survive %g) = %g outside [0,1]", rejuv, window, p)
			}
			if p > prev+1e-12 {
				t.Errorf("rejuv=%v: survival not non-increasing at %g: %g > %g", rejuv, window, p, prev)
			}
			prev = p
		}
	}
}

func TestSurvivalAtZeroWindowIsOne(t *testing.T) {
	m := buildArch(t, false)
	rf, err := m.PaperReliability()
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.SurvivalProbability(rf, 0.01, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p[0]-1) > 1e-12 {
		t.Errorf("P(survive 0) = %g", p[0])
	}
}

func TestSurvivalZeroRequestRateIsOne(t *testing.T) {
	m := buildArch(t, true)
	rf, err := m.PaperReliability()
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.SurvivalProbability(rf, 0, []float64{5e4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p[0]-1) > 1e-9 {
		t.Errorf("P(survive with no requests) = %g", p[0])
	}
}

func TestSurvivalRejuvenationHelps(t *testing.T) {
	m4 := buildArch(t, false)
	rf4, err := m4.PaperReliability()
	if err != nil {
		t.Fatal(err)
	}
	m6 := buildArch(t, true)
	rf6, err := m6.PaperReliability()
	if err != nil {
		t.Fatal(err)
	}
	const (
		rate   = 1.0 / 300
		window = 24 * 3600.0
	)
	p4, err := m4.SurvivalProbability(rf4, rate, []float64{window})
	if err != nil {
		t.Fatal(err)
	}
	p6, err := m6.SurvivalProbability(rf6, rate, []float64{window})
	if err != nil {
		t.Fatal(err)
	}
	if p6[0] <= p4[0] {
		t.Errorf("six-version survival %g should beat four-version %g", p6[0], p4[0])
	}
}

func TestSurvivalValidation(t *testing.T) {
	m := buildArch(t, false)
	rf, err := m.PaperReliability()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SurvivalProbability(rf, -1, []float64{10}); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := m.SurvivalProbability(rf, 1, []float64{-10}); err == nil {
		t.Error("negative window accepted")
	}
	p := DefaultSixVersion()
	p.Clock = ClockWaitsForWave
	waits, err := BuildWithRejuvenation(p)
	if err != nil {
		t.Fatal(err)
	}
	rf6, err := waits.PaperReliability()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waits.SurvivalProbability(rf6, 1, []float64{10}); !errors.Is(err, ErrTransientUnsupported) {
		t.Errorf("err = %v", err)
	}
}

func TestErrorProbabilitySkipStatesAreSafe(t *testing.T) {
	m := buildArch(t, false)
	rf, err := m.PaperReliability()
	if err != nil {
		t.Fatal(err)
	}
	perr := m.ErrorProbability(rf)
	// Fewer than 3 operational modules: the voter always skips.
	if got := perr(1, 1, 2); got != 0 {
		t.Errorf("perr(1,1,2) = %g, want 0", got)
	}
	if got := perr(0, 0, 4); got != 0 {
		t.Errorf("perr(0,0,4) = %g, want 0", got)
	}
	// Fully healthy: 1 - R_{4,0,0} = 0.05 at the defaults.
	if got := perr(4, 0, 0); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("perr(4,0,0) = %g, want 0.05", got)
	}
}

// TestSurvivalShortWindowClosedForm: over a window much shorter than any
// lifecycle time scale the system stays in the all-healthy state, so
// survival is approximately exp(-rate * perr(healthy) * t).
func TestSurvivalShortWindowClosedForm(t *testing.T) {
	m := buildArch(t, false)
	rf, err := m.PaperReliability()
	if err != nil {
		t.Fatal(err)
	}
	const (
		rate   = 0.5
		window = 10.0
	)
	got, err := m.SurvivalProbability(rf, rate, []float64{window})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-rate * 0.05 * window)
	if math.Abs(got[0]-want) > 1e-3 {
		t.Errorf("short-window survival = %.6f, want ~%.6f", got[0], want)
	}
}

func buildArch(t *testing.T, rejuv bool) *Model {
	t.Helper()
	if rejuv {
		m, err := BuildWithRejuvenation(DefaultSixVersion())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m, err := BuildNoRejuvenation(DefaultFourVersion())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGenerativeReliabilityAvailable(t *testing.T) {
	// The generative reliability model plugs into the same evaluation
	// path as the others.
	m := buildArch(t, true)
	rf, err := reliability.Generative(m.Params.Reliability(), m.Params.Scheme())
	if err != nil {
		t.Fatal(err)
	}
	e, err := m.ExpectedReliability(rf)
	if err != nil {
		t.Fatal(err)
	}
	if e <= 0.9 || e >= 1 {
		t.Errorf("generative E[R_6v] = %g out of expected band", e)
	}
}
