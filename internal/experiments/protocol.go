package experiments

import (
	"fmt"
	"io"

	"nvrel/internal/bftvote"
	"nvrel/internal/des"
	"nvrel/internal/mlsim"
	"nvrel/internal/nvp"
	"nvrel/internal/voter"
)

// ProtocolResult summarizes the message-level voting experiment (extension
// E16): the six-version system's voter realized as an actual BFT-style
// vote exchange, with module states sampled from the analytic steady state
// and module outputs from the generative error model.
type ProtocolResult struct {
	// Tally classifies each round: correct when an honest replica decided
	// the true label, erroneous when any replica decided a wrong label,
	// skipped when the round timed out without a quorum.
	Tally voter.Tally
	// MeanDecisionLatency is the average time (s) from round start to the
	// first correct decision, over correct rounds.
	MeanDecisionLatency float64
	// MeanMessages is the average number of votes on the wire per round.
	MeanMessages float64
	// AnalyticSafety is E[R_6v] for comparison with 1 - Tally error rate.
	AnalyticSafety float64
}

// RunProtocol executes message-level voting rounds; it needs at least
// one round.
func RunProtocol(rounds int, seed uint64) (*ProtocolResult, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("experiments: rounds = %d, want at least 1", rounds)
	}
	params := nvp.DefaultSixVersion()
	model, err := nvp.BuildWithRejuvenation(params)
	if err != nil {
		return nil, err
	}
	states, err := model.StateDistribution()
	if err != nil {
		return nil, err
	}
	analytic, err := model.ExpectedPaperReliability()
	if err != nil {
		return nil, err
	}
	errModel, err := mlsim.NewErrorModel(params.P, params.PPrime, params.Alpha)
	if err != nil {
		return nil, err
	}

	rng := des.NewRNG(seed)
	sampleState := func() nvp.ModuleState {
		u := rng.Float64()
		acc := 0.0
		for _, s := range states {
			acc += s.Probability
			if u <= acc {
				return s
			}
		}
		return states[len(states)-1]
	}

	res := &ProtocolResult{AnalyticSafety: analytic}
	var latencySum float64
	var latencyN, msgSum int
	// Every round reuses one correctness sample, one behavior list, one
	// round stream (re-seeded as Fork would seed a fresh one) and one
	// result, and bftvote pools the rest: a round allocates nothing.
	var (
		correct   []bool
		behaviors = make([]bftvote.Behavior, 0, params.N)
		roundRNG  des.RNG
		rr        bftvote.RoundResult
	)
	for round := 0; round < rounds; round++ {
		st := sampleState()
		correct = errModel.SampleCorrectnessInto(correct, rng, st.Healthy, st.Compromised)
		behaviors = behaviors[:0]
		for _, ok := range correct {
			if ok {
				behaviors = append(behaviors, bftvote.Honest)
			} else {
				behaviors = append(behaviors, bftvote.Wrong)
			}
		}
		for i := 0; i < st.Down; i++ {
			behaviors = append(behaviors, bftvote.Silent)
		}
		roundRNG.Seed(rng.Uint64())
		err := bftvote.RunInto(bftvote.RoundConfig{
			Behaviors:    behaviors,
			Quorum:       params.Scheme().Threshold(),
			CorrectLabel: 1,
			WrongLabel:   2,
			Network:      bftvote.NetworkConfig{MeanDelay: 0.005},
			Timeout:      1,
		}, &roundRNG, &rr)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		msgSum += rr.MessagesSent

		outcome := voter.Skipped
		var firstCorrect float64 = -1
		for _, d := range rr.Decisions {
			if !d.Decided {
				continue
			}
			if d.Label == 1 {
				if firstCorrect < 0 || d.At < firstCorrect {
					firstCorrect = d.At
				}
				if outcome == voter.Skipped {
					outcome = voter.Correct
				}
			} else {
				outcome = voter.Erroneous
			}
		}
		res.Tally.Record(outcome)
		if outcome == voter.Correct {
			latencySum += firstCorrect
			latencyN++
		}
	}
	if latencyN > 0 {
		res.MeanDecisionLatency = latencySum / float64(latencyN)
	}
	res.MeanMessages = float64(msgSum) / float64(rounds)
	return res, nil
}

// ReportProtocol writes the E16 report.
func ReportProtocol(w io.Writer) error {
	res, err := RunProtocol(4000, 20230707)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "E16 (extension): message-level BFT-style voting (six-version system)")
	fmt.Fprintf(w, "  rounds: %d over states sampled from the analytic steady state\n", res.Tally.Total())
	fmt.Fprintf(w, "  P(correct decision)        = %.4f\n", res.Tally.Reliability())
	fmt.Fprintf(w, "  1 - P(erroneous decision)  = %.4f (analytic E[R_6v] = %.4f)\n", res.Tally.Safety(), res.AnalyticSafety)
	fmt.Fprintf(w, "  P(timeout/skip)            = %.4f\n", 1-res.Tally.Reliability()-res.Tally.ErrorRate())
	fmt.Fprintf(w, "  mean decision latency      = %.4f s (5 ms mean link delay)\n", res.MeanDecisionLatency)
	fmt.Fprintf(w, "  mean votes per round       = %.1f (all-to-all broadcast)\n", res.MeanMessages)
	return nil
}
