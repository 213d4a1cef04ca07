package nvp

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"nvrel/internal/mrgp"
)

func TestTransientReliabilityFourVersion(t *testing.T) {
	m, err := BuildNoRejuvenation(DefaultFourVersion())
	if err != nil {
		t.Fatal(err)
	}
	rf, err := m.PaperReliability()
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{0, 600, 3600, 20000, 200000}
	rs, err := m.TransientReliability(rf, times)
	if err != nil {
		t.Fatalf("TransientReliability: %v", err)
	}
	// At t = 0 the system is all-healthy: R(0) = R_{4,0,0} = 0.95 at the
	// defaults.
	if math.Abs(rs[0]-rf(4, 0, 0)) > 1e-12 {
		t.Errorf("R(0) = %.6f, want %.6f", rs[0], rf(4, 0, 0))
	}
	// Reliability degrades monotonically toward the steady state for this
	// model (fresh system decays, no renewal).
	for i := 1; i < len(rs); i++ {
		if rs[i] >= rs[i-1] {
			t.Errorf("R not decreasing at t=%g: %.8f >= %.8f", times[i], rs[i], rs[i-1])
		}
	}
	// Long-run value matches the steady state.
	ss, err := m.ExpectedPaperReliability()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rs[len(rs)-1]-ss) > 1e-6 {
		t.Errorf("R(200000) = %.8f, steady state %.8f", rs[len(rs)-1], ss)
	}
}

func TestTransientReliabilitySixVersion(t *testing.T) {
	m, err := BuildWithRejuvenation(DefaultSixVersion())
	if err != nil {
		t.Fatal(err)
	}
	rf, err := m.PaperReliability()
	if err != nil {
		t.Fatal(err)
	}
	times := []float64{0, 300, 600, 1200, 50000, 500000, 500600}
	rs, err := m.TransientReliability(rf, times)
	if err != nil {
		t.Fatalf("TransientReliability: %v", err)
	}
	if math.Abs(rs[0]-rf(6, 0, 0)) > 1e-12 {
		t.Errorf("R(0) = %.6f, want %.6f", rs[0], rf(6, 0, 0))
	}
	// The clocked process converges to a cyclo-stationary regime, not to a
	// pointwise limit: R(t) keeps oscillating within each clock cycle, and
	// the steady state reported by the MRGP solver is the cycle average.
	// Check (a) periodicity in the limit and (b) that the late-time value
	// brackets the cycle average within the cycle's oscillation amplitude.
	if math.Abs(rs[5]-rs[6]) > 1e-9 {
		t.Errorf("limit not periodic: R(500000) = %.9f vs R(500600) = %.9f", rs[5], rs[6])
	}
	ss, err := m.ExpectedPaperReliability()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rs[5]-ss) > 0.01 {
		t.Errorf("R(500000) = %.8f too far from cycle average %.8f", rs[5], ss)
	}
	// All values live in (0, 1].
	for i, r := range rs {
		if r <= 0 || r > 1 {
			t.Errorf("R(%g) = %g", times[i], r)
		}
	}
}

func TestTransientReliabilityValidation(t *testing.T) {
	m, err := BuildNoRejuvenation(DefaultFourVersion())
	if err != nil {
		t.Fatal(err)
	}
	rf, err := m.PaperReliability()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TransientReliability(rf, []float64{-1}); err == nil {
		t.Error("negative time accepted")
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
	if _, err := waits.TransientReliability(rf6, []float64{1}); !errors.Is(err, ErrTransientUnsupported) {
		t.Errorf("err = %v, want ErrTransientUnsupported", err)
	}
	if _, err := waits.MissionReliability(rf6, []float64{10}); !errors.Is(err, ErrTransientUnsupported) {
		t.Errorf("err = %v, want ErrTransientUnsupported", err)
	}
}

func TestMissionReliability(t *testing.T) {
	for _, rejuv := range []bool{false, true} {
		var (
			m   *Model
			err error
		)
		if rejuv {
			m, err = BuildWithRejuvenation(DefaultSixVersion())
		} else {
			m, err = BuildNoRejuvenation(DefaultFourVersion())
		}
		if err != nil {
			t.Fatal(err)
		}
		rf, err := m.PaperReliability()
		if err != nil {
			t.Fatal(err)
		}
		avgs, err := m.MissionReliability(rf, []float64{60, 5e5})
		if err != nil {
			t.Fatalf("MissionReliability: %v", err)
		}
		short, long := avgs[0], avgs[1]
		ss, err := m.ExpectedPaperReliability()
		if err != nil {
			t.Fatal(err)
		}
		// A short mission starting all-healthy beats the steady state; a
		// long mission converges to it.
		if short <= ss {
			t.Errorf("rejuv=%v: short mission %.8f should exceed steady state %.8f", rejuv, short, ss)
		}
		if math.Abs(long-ss) > 5e-3 {
			t.Errorf("rejuv=%v: long mission %.8f should approach steady state %.8f", rejuv, long, ss)
		}
		if _, err := m.MissionReliability(rf, []float64{0}); err == nil {
			t.Error("zero mission length accepted")
		}
	}
}

func TestMissionMatchesTransientTrapezoid(t *testing.T) {
	// Independent check: numerically integrate the transient curve and
	// compare with the closed-form accumulated reward.
	m, err := BuildWithRejuvenation(DefaultSixVersion())
	if err != nil {
		t.Fatal(err)
	}
	rf, err := m.PaperReliability()
	if err != nil {
		t.Fatal(err)
	}
	const (
		horizon = 2400.0
		steps   = 480
	)
	times := make([]float64, steps+1)
	for i := range times {
		times[i] = horizon * float64(i) / steps
	}
	rs, err := m.TransientReliability(rf, times)
	if err != nil {
		t.Fatal(err)
	}
	var integral float64
	for i := 1; i < len(times); i++ {
		integral += (rs[i] + rs[i-1]) / 2 * (times[i] - times[i-1])
	}
	want := integral / horizon
	avg, err := m.MissionReliability(rf, []float64{horizon})
	if err != nil {
		t.Fatal(err)
	}
	got := avg[0]
	// R(t) is discontinuous at clock ticks (the branching matrix applies
	// instantaneously), so the trapezoid rule carries O(step) error around
	// each tick; the tolerance accounts for the four ticks in the window.
	if math.Abs(got-want) > 5e-4 {
		t.Errorf("mission = %.8f, trapezoid %.8f", got, want)
	}
}

// TestTransientRejectsBadNumbers: a NaN, infinite or negative time,
// mission window, request rate or survival window is a typed error on
// both architectures — never a panic, a hang or a silent answer.
func TestTransientRejectsBadNumbers(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1}
	for _, rejuv := range []bool{false, true} {
		m := buildArch(t, rejuv)
		rf, err := m.PaperReliability()
		if err != nil {
			t.Fatal(err)
		}
		calls := map[string]func(x float64) error{
			"TransientReliability(t)": func(x float64) error {
				_, err := m.TransientReliability(rf, []float64{0, x})
				return err
			},
			"MissionReliability(window)": func(x float64) error {
				_, err := m.MissionReliability(rf, []float64{600, x})
				return err
			},
			"SurvivalProbability(rate)": func(x float64) error {
				_, err := m.SurvivalProbability(rf, x, []float64{600})
				return err
			},
			"SurvivalProbability(window)": func(x float64) error {
				_, err := m.SurvivalProbability(rf, 1.0/120, []float64{600, x})
				return err
			},
		}
		for name, call := range calls {
			for _, x := range bad {
				t.Run(fmt.Sprintf("rejuv=%v/%s=%g", rejuv, name, x), func(t *testing.T) {
					if err := call(x); !errors.Is(err, mrgp.ErrInvalidInput) {
						t.Errorf("err = %v, want mrgp.ErrInvalidInput", err)
					}
				})
			}
		}
	}
}
