package bftvote

import (
	"errors"
	"fmt"

	"nvrel/internal/des"
)

// RoundConfig describes one voting round.
type RoundConfig struct {
	// Behaviors assigns each replica its fault mode; its length is the
	// replica count n.
	Behaviors []Behavior
	// Quorum is the number of matching votes needed to decide (2f+1, or
	// 2f+r+1 with rejuvenation).
	Quorum int
	// CorrectLabel is what honest replicas vote.
	CorrectLabel Label
	// WrongLabel is what Wrong replicas vote and one of the labels
	// equivocating replicas use.
	WrongLabel Label
	// Network configures delays and loss.
	Network NetworkConfig
	// Timeout ends the round; replicas without a quorum by then skip.
	Timeout float64
}

// Validate checks the round configuration.
func (c RoundConfig) Validate() error {
	if len(c.Behaviors) == 0 {
		return ErrNoReplicas
	}
	if c.Quorum <= 0 || c.Quorum > len(c.Behaviors) {
		return ErrBadQuorum
	}
	for i, b := range c.Behaviors {
		switch b {
		case Honest, Wrong, Equivocating, Silent:
		default:
			return fmt.Errorf("bftvote: replica %d has unknown behavior %d", i, b)
		}
	}
	if c.CorrectLabel == c.WrongLabel {
		return errors.New("bftvote: correct and wrong labels must differ")
	}
	if c.Timeout <= 0 {
		return errors.New("bftvote: timeout must be positive")
	}
	if err := des.CheckFinite("timeout", c.Timeout); err != nil {
		return fmt.Errorf("bftvote: %w", err)
	}
	return c.Network.Validate()
}

// RoundResult summarizes a completed round.
type RoundResult struct {
	// Decisions holds each replica's outcome (silent replicas never
	// decide).
	Decisions []Decision
	// MessagesSent counts all votes put on the wire (n*(n-1) hand-shakes
	// for an all-to-all broadcast minus silent replicas).
	MessagesSent int
	// MessagesDropped counts votes lost to the network.
	MessagesDropped int
}

// CorrectDecisions counts replicas that decided the correct label.
func (r *RoundResult) CorrectDecisions(correct Label) int {
	var c int
	for _, d := range r.Decisions {
		if d.Decided && d.Label == correct {
			c++
		}
	}
	return c
}

// ConflictingDecisions reports whether two replicas decided different
// labels — the safety violation the quorum size must prevent.
func (r *RoundResult) ConflictingDecisions() bool {
	var (
		seen  bool
		label Label
	)
	for _, d := range r.Decisions {
		if !d.Decided {
			continue
		}
		if seen && d.Label != label {
			return true
		}
		seen, label = true, d.Label
	}
	return false
}

// replica is the per-node state machine.
type replica struct {
	id      ReplicaID
	quorum  int
	silent  bool // rejuvenating/crashed: neither votes nor processes
	tallies []labelCount
	voted   []bool // indexed by sender; a window of the round's shared slice
	out     *Decision
	sim     *des.Simulation
}

// labelCount is one label's running vote count. Labels are arbitrary ints,
// so a replica keeps its few distinct labels in a short list, not a slice
// indexed by label.
type labelCount struct {
	label Label
	count int
}

// onVote processes a received (or own) vote: first vote per sender counts.
func (r *replica) onVote(v Vote) {
	if r.silent || r.out.Decided || r.voted[v.From] {
		return
	}
	r.voted[v.From] = true
	if r.tally(v.Label) >= r.quorum {
		*r.out = Decision{Decided: true, Label: v.Label, At: r.sim.Now()}
	}
}

// tally counts one more vote for label and returns its new total.
func (r *replica) tally(label Label) int {
	for i := range r.tallies {
		if r.tallies[i].label == label {
			r.tallies[i].count++
			return r.tallies[i].count
		}
	}
	r.tallies = append(r.tallies, labelCount{label, 1})
	return 1
}

// Run executes one voting round to completion (all deliveries processed or
// timeout reached) and returns the outcome.
func Run(cfg RoundConfig, rng *des.RNG) (*RoundResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, errors.New("bftvote: nil rng")
	}
	n := len(cfg.Behaviors)
	var sim des.Simulation
	net := acquireNetwork(cfg.Network, &sim, rng)
	defer net.release()

	res := &RoundResult{Decisions: make([]Decision, n)}
	replicas := make([]*replica, n)
	// One allocation each for all replicas: replica i's sender flags are
	// voted[i*n:(i+1)*n], and its tallies start in counts[2i:2i+2], room
	// for the round's two labels.
	voted := make([]bool, n*n)
	counts := make([]labelCount, 2*n)
	for i := 0; i < n; i++ {
		replicas[i] = &replica{
			id:      ReplicaID(i),
			quorum:  cfg.Quorum,
			silent:  cfg.Behaviors[i] == Silent,
			tallies: counts[2*i : 2*i : 2*i+2],
			voted:   voted[i*n : (i+1)*n : (i+1)*n],
			out:     &res.Decisions[i],
			sim:     &sim,
		}
	}

	// Each non-silent replica broadcasts its vote to every peer and counts
	// its own vote immediately.
	for i, b := range cfg.Behaviors {
		if b == Silent {
			continue
		}
		from := ReplicaID(i)
		ownLabel := cfg.CorrectLabel
		if b == Wrong {
			ownLabel = cfg.WrongLabel
		}
		if b == Equivocating {
			// An equivocator tells itself nothing useful; pick the wrong
			// label for its own tally.
			ownLabel = cfg.WrongLabel
		}
		replicas[i].onVote(Vote{From: from, Label: ownLabel})
		for j := range replicas {
			if j == i {
				continue
			}
			label := ownLabel
			if b == Equivocating {
				// Split the peer set: even-indexed peers hear the correct
				// label, odd-indexed the wrong one.
				if j%2 == 0 {
					label = cfg.CorrectLabel
				} else {
					label = cfg.WrongLabel
				}
			}
			net.send(Vote{From: from, Label: label}, replicas[j])
		}
	}

	if err := sim.RunUntil(cfg.Timeout); err != nil {
		return nil, err
	}
	res.MessagesSent = net.sent
	res.MessagesDropped = net.dropped
	return res, nil
}
