package bftvote

import (
	"errors"
	"fmt"
	"slices"
	"sync"

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

// round is the state one voting round runs on: its simulation, its
// network with the network's vote slots, and its replicas with their
// sender-flag and tally slabs. Rounds are pooled with everything they
// own, so once the pool is warm a round allocates nothing.
type round struct {
	sim      des.Simulation
	net      network
	replicas []replica
	voted    []bool
	counts   []labelCount
}

// roundPool recycles round state across rounds and goroutines.
var roundPool = sync.Pool{New: func() any { return new(round) }}

// release rewinds the round's simulation, frees its network's slots and
// drops its replicas' references to the caller's result before returning
// it to the pool.
func (r *round) release() {
	r.net.release()
	r.sim.Reset()
	clear(r.replicas)
	roundPool.Put(r)
}

// Run executes one voting round to completion (all deliveries processed or
// timeout reached) and returns the outcome.
func Run(cfg RoundConfig, rng *des.RNG) (*RoundResult, error) {
	res := new(RoundResult)
	if err := RunInto(cfg, rng, res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto is Run writing the outcome into res, whose Decisions storage it
// reuses: with the round state pooled, a round then allocates nothing.
func RunInto(cfg RoundConfig, rng *des.RNG, res *RoundResult) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if rng == nil {
		return errors.New("bftvote: nil rng")
	}
	n := len(cfg.Behaviors)
	decisions := slices.Grow(res.Decisions[:0], n)[:n]
	clear(decisions)
	*res = RoundResult{Decisions: decisions}

	r := roundPool.Get().(*round)
	defer r.release()
	r.net.cfg, r.net.sim, r.net.rng = cfg.Network, &r.sim, rng
	// One slab each for all replicas: replica i's sender flags are
	// voted[i*n:(i+1)*n], and its tallies start in counts[2i:2i+2], room
	// for the round's two labels.
	r.replicas = slices.Grow(r.replicas[:0], n)[:n]
	r.voted = slices.Grow(r.voted[:0], n*n)[:n*n]
	clear(r.voted)
	r.counts = slices.Grow(r.counts[:0], 2*n)[:2*n]
	for i := range r.replicas {
		r.replicas[i] = replica{
			id:      ReplicaID(i),
			quorum:  cfg.Quorum,
			silent:  cfg.Behaviors[i] == Silent,
			tallies: r.counts[2*i : 2*i : 2*i+2],
			voted:   r.voted[i*n : (i+1)*n : (i+1)*n],
			out:     &res.Decisions[i],
			sim:     &r.sim,
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
		r.replicas[i].onVote(Vote{From: from, Label: ownLabel})
		for j := range r.replicas {
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
			r.net.send(Vote{From: from, Label: label}, &r.replicas[j])
		}
	}

	if err := r.sim.RunUntil(cfg.Timeout); err != nil {
		return err
	}
	res.MessagesSent = r.net.sent
	res.MessagesDropped = r.net.dropped
	return nil
}
