package experiments

import (
	"fmt"
	"io"
	"math"

	"nvrel/internal/nvp"
	"nvrel/internal/parallel"
)

// TransientPoint is one sample of the reliability-over-time curves.
type TransientPoint struct {
	Time        float64
	FourVersion float64
	SixVersion  float64
}

// TransientGrid is the default sampling grid for the transient experiment:
// dense over the first few rejuvenation cycles, then exponentially sparser
// until the curves settle.
func TransientGrid() []float64 {
	var grid []float64
	for t := 0.0; t <= 3000; t += 150 {
		grid = append(grid, t)
	}
	for _, t := range []float64{4000, 6000, 9000, 15000, 25000, 40000, 80000, 150000} {
		grid = append(grid, t)
	}
	return grid
}

// RunTransient computes E[R(t)] for both architectures from an all-healthy
// start (extension experiment E10: the paper only reports steady states).
func RunTransient(grid []float64) ([]TransientPoint, error) {
	if len(grid) == 0 {
		grid = TransientGrid()
	}
	// The two architectures' curves are independent; compute them
	// concurrently.
	var r4, r6 []float64
	err := parallel.ForEach(2, func(i int) error {
		if i == 0 {
			m4, err := solveCache.BuildNoRejuvenation(nvp.DefaultFourVersion())
			if err != nil {
				return err
			}
			rf4, err := m4.PaperReliability()
			if err != nil {
				return err
			}
			if r4, err = m4.TransientReliability(rf4, grid); err != nil {
				return fmt.Errorf("four-version transient: %w", err)
			}
			return nil
		}
		m6, err := solveCache.BuildWithRejuvenation(nvp.DefaultSixVersion())
		if err != nil {
			return err
		}
		rf6, err := m6.PaperReliability()
		if err != nil {
			return err
		}
		if r6, err = m6.TransientReliability(rf6, grid); err != nil {
			return fmt.Errorf("six-version transient: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]TransientPoint, len(grid))
	for i, t := range grid {
		out[i] = TransientPoint{Time: t, FourVersion: r4[i], SixVersion: r6[i]}
	}
	return out, nil
}

// MissionRow is one mission-window comparison.
type MissionRow struct {
	Mission     float64 // mission length in seconds
	FourVersion float64
	SixVersion  float64
}

// RunMissions computes the time-averaged reliability over mission windows
// of increasing length (extension: interval reliability for finite
// deployments, converging to the steady states as windows grow).
func RunMissions(windows []float64) ([]MissionRow, error) {
	if len(windows) == 0 {
		windows = []float64{600, 3600, 4 * 3600, 24 * 3600, 7 * 24 * 3600}
	}
	m4, err := solveCache.BuildNoRejuvenation(nvp.DefaultFourVersion())
	if err != nil {
		return nil, err
	}
	rf4, err := m4.PaperReliability()
	if err != nil {
		return nil, err
	}
	m6, err := solveCache.BuildWithRejuvenation(nvp.DefaultSixVersion())
	if err != nil {
		return nil, err
	}
	rf6, err := m6.PaperReliability()
	if err != nil {
		return nil, err
	}
	e4, err := m4.MissionReliability(rf4, windows)
	if err != nil {
		return nil, fmt.Errorf("four-version missions: %w", err)
	}
	e6, err := m6.MissionReliability(rf6, windows)
	if err != nil {
		return nil, fmt.Errorf("six-version missions: %w", err)
	}
	out := make([]MissionRow, len(windows))
	for i, w := range windows {
		out[i] = MissionRow{Mission: w, FourVersion: e4[i], SixVersion: e6[i]}
	}
	return out, nil
}

// ReportTransient writes the E10 report.
func ReportTransient(w io.Writer) error {
	points, err := RunTransient(nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E10 (extension): expected reliability over time from an all-healthy start")
	fmt.Fprintf(w, "  %-10s %-12s %-12s\n", "t (s)", "E[R_4v](t)", "E[R_6v](t)")
	for _, p := range points {
		fmt.Fprintf(w, "  %-10g %-12.6f %-12.6f\n", p.Time, p.FourVersion, p.SixVersion)
	}
	missions, err := RunMissions(nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "  mission-window averages (1/T Integral_0^T E[R(t)] dt):")
	fmt.Fprintf(w, "  %-10s %-12s %-12s\n", "T (s)", "4v", "6v")
	for _, m := range missions {
		fmt.Fprintf(w, "  %-10s %-12.6f %-12.6f\n", formatSeconds(m.Mission), m.FourVersion, m.SixVersion)
	}
	return nil
}

func formatSeconds(s float64) string {
	switch {
	case s >= 86400 && math.Mod(s, 86400) == 0:
		return fmt.Sprintf("%gd", s/86400)
	case s >= 3600 && math.Mod(s, 3600) == 0:
		return fmt.Sprintf("%gh", s/3600)
	default:
		return fmt.Sprintf("%gs", s)
	}
}
