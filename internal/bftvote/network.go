package bftvote

import (
	"fmt"
	"math"

	"nvrel/internal/des"
)

// NetworkConfig describes the message substrate between replicas.
type NetworkConfig struct {
	// MeanDelay is the mean one-way message delay (exponentially
	// distributed). Zero means instantaneous delivery.
	MeanDelay float64
	// JitterlessDelay, when positive, replaces the exponential delay with
	// a fixed one (useful for deterministic tests).
	JitterlessDelay float64
	// DropProbability is the independent chance a message is lost.
	DropProbability float64
}

// Validate checks the configuration.
func (c NetworkConfig) Validate() error {
	if c.MeanDelay < 0 || math.IsNaN(c.MeanDelay) {
		return fmt.Errorf("bftvote: mean delay %g must be non-negative", c.MeanDelay)
	}
	if c.JitterlessDelay < 0 || math.IsNaN(c.JitterlessDelay) {
		return fmt.Errorf("bftvote: fixed delay %g must be non-negative", c.JitterlessDelay)
	}
	if c.DropProbability < 0 || c.DropProbability >= 1 {
		return fmt.Errorf("bftvote: drop probability %g must lie in [0,1)", c.DropProbability)
	}
	return nil
}

// network delivers votes between replicas over the simulation. Every vote
// in flight occupies a pooled slot whose timer is re-armed with des.Rearm
// and whose delivery action is bound once, when the slot is made: a
// delivered slot returns to the free list, so once the network owns as
// many slots as its busiest moment needed, sending allocates nothing.
type network struct {
	cfg NetworkConfig
	sim *des.Simulation
	rng *des.RNG

	sent, dropped int

	slots []*inflight // every slot the network owns
	free  []*inflight // the slots not in flight
}

// inflight is one vote on the wire.
type inflight struct {
	ev      des.Handle
	vote    Vote
	to      *replica
	net     *network
	deliver des.Action // onDeliver, bound when the slot is made
}

// onDeliver hands the vote to its receiver and frees the slot first, so
// the receiver could send again through it.
func (m *inflight) onDeliver() {
	vote, to := m.vote, m.to
	m.to = nil
	m.net.free = append(m.net.free, m)
	to.onVote(vote)
}

// release cancels the votes still in flight when the round ended, frees
// every slot and zeroes the counters, ready for the next round.
func (n *network) release() {
	n.free = n.free[:0]
	for _, m := range n.slots {
		m.ev.Cancel()
		m.to = nil
		n.free = append(n.free, m)
	}
	n.sim, n.rng = nil, nil
	n.sent, n.dropped = 0, 0
}

// send schedules delivery of v to the receiver, applying loss and delay.
// Like des.Schedule, the re-armed slot takes the next sequence number, so
// deliveries fire in the order fresh handles would.
func (n *network) send(v Vote, to *replica) {
	n.sent++
	if n.cfg.DropProbability > 0 && n.rng.Bernoulli(n.cfg.DropProbability) {
		n.dropped++
		return
	}
	delay := 0.0
	switch {
	case n.cfg.JitterlessDelay > 0:
		delay = n.cfg.JitterlessDelay
	case n.cfg.MeanDelay > 0:
		delay = n.rng.Exp(n.cfg.MeanDelay)
	}
	m := n.slot()
	m.vote, m.to = v, to
	if err := n.sim.Rearm(&m.ev, delay, m.deliver); err != nil {
		// Delays are generated non-negative; scheduling cannot fail.
		panic(fmt.Sprintf("bftvote: schedule: %v", err))
	}
}

// slot takes a free slot, making one when none is free.
func (n *network) slot() *inflight {
	if k := len(n.free) - 1; k >= 0 {
		m := n.free[k]
		n.free = n.free[:k]
		return m
	}
	m := &inflight{net: n}
	m.deliver = m.onDeliver
	n.slots = append(n.slots, m)
	return m
}
