package experiments

import (
	"fmt"
	"io"

	"nvrel/internal/nvp"
	"nvrel/internal/reliability"
)

// SurvivalRow is one mission-window survival comparison.
type SurvivalRow struct {
	Window      float64 // mission length (s)
	FourVersion float64 // P(no erroneous output), four-version
	SixVersion  float64 // P(no erroneous output), six-version
}

// RunSurvival computes mission survival probabilities — P(zero erroneous
// voted outputs during the window) with Poisson perception requests —
// for both architectures (extension experiment E17). The per-request
// error probabilities come from the generative error model
// (reliability.Generative), the law the event-level simulator samples
// from, so these numbers are cross-validated against simulation in the
// test suite.
func RunSurvival(requestInterval float64, windows []float64) ([]SurvivalRow, error) {
	if requestInterval <= 0 {
		requestInterval = 120
	}
	if len(windows) == 0 {
		windows = []float64{600, 1200, 2400, 3600, 2 * 3600, 4 * 3600}
	}
	m4, err := nvp.BuildNoRejuvenation(nvp.DefaultFourVersion())
	if err != nil {
		return nil, err
	}
	rf4, err := reliability.Generative(m4.Params.Reliability(), m4.Params.Scheme())
	if err != nil {
		return nil, err
	}
	m6, err := nvp.BuildWithRejuvenation(nvp.DefaultSixVersion())
	if err != nil {
		return nil, err
	}
	rf6, err := reliability.Generative(m6.Params.Reliability(), m6.Params.Scheme())
	if err != nil {
		return nil, err
	}
	rate := 1 / requestInterval
	p4, err := m4.SurvivalProbability(rf4, rate, windows)
	if err != nil {
		return nil, fmt.Errorf("four-version survival: %w", err)
	}
	p6, err := m6.SurvivalProbability(rf6, rate, windows)
	if err != nil {
		return nil, fmt.Errorf("six-version survival: %w", err)
	}
	out := make([]SurvivalRow, len(windows))
	for i, w := range windows {
		out[i] = SurvivalRow{Window: w, FourVersion: p4[i], SixVersion: p6[i]}
	}
	return out, nil
}

// ReportSurvival writes the E17 report.
func ReportSurvival(w io.Writer) error {
	const interval = 120.0
	rows, err := RunSurvival(interval, nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E17 (extension): mission survival — P(zero erroneous outputs in the window)")
	fmt.Fprintf(w, "  Poisson perception requests every %.0f s on average; generative error model\n", interval)
	fmt.Fprintf(w, "  %-10s %-12s %-12s\n", "window", "4v", "6v")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %-12.6f %-12.6f\n", formatSeconds(r.Window), r.FourVersion, r.SixVersion)
	}
	fmt.Fprintln(w, "  (per-request errors are common enough at the defaults that long missions")
	fmt.Fprintln(w, "  almost surely see at least one; the six-version advantage compounds per window)")
	return nil
}
