package bftvote

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"nvrel/internal/des"
)

// steadyNetwork returns a fresh network, not a pooled one, with inflight
// votes on the wire to one replica that never decides, and that replica.
// Sending one vote and firing one event then keeps the network in a steady
// state.
func steadyNetwork(sim *des.Simulation, inflight int) (*network, *replica) {
	const n = 6
	to := &replica{
		quorum:  n + 1, // unreachable: every delivery takes the full path
		tallies: make([]labelCount, 0, 2),
		voted:   make([]bool, n),
		out:     new(Decision),
		sim:     sim,
	}
	net := &network{cfg: NetworkConfig{MeanDelay: 0.005}, sim: sim, rng: des.NewRNG(1)}
	for i := 0; i < inflight; i++ {
		net.send(Vote{From: ReplicaID(i % n), Label: 1}, to)
	}
	// Warm up: the first cycles make the spare slot and grow the free
	// list and the tallies.
	for i := 0; i < 100; i++ {
		deliverOne(sim, net, to, i)
	}
	return net, to
}

// deliverOne sends one vote and fires the earliest pending delivery.
func deliverOne(sim *des.Simulation, net *network, to *replica, i int) bool {
	net.send(Vote{From: ReplicaID(i % len(to.voted)), Label: Label(1 + i%2)}, to)
	return sim.Step()
}

// TestMessageDeliveryAllocatesNothing: once the network owns enough slots,
// a send and its delivery allocate nothing.
func TestMessageDeliveryAllocatesNothing(t *testing.T) {
	var sim des.Simulation
	net, to := steadyNetwork(&sim, 30)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if !deliverOne(&sim, net, to, i) {
			t.Fatal("event list drained")
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state delivery allocates %v per message, want 0", allocs)
	}
	if got := len(net.slots); got != 31 {
		t.Errorf("network owns %d slots, want 31 (30 in flight + 1)", got)
	}
}

// BenchmarkMessageDeliveryNoAlloc sends and delivers one vote per
// iteration through a warmed network with 30 votes in flight (one
// six-replica broadcast round). check.sh fails on any allocation.
func BenchmarkMessageDeliveryNoAlloc(b *testing.B) {
	var sim des.Simulation
	net, to := steadyNetwork(&sim, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !deliverOne(&sim, net, to, i) {
			b.Fatal("event list drained")
		}
	}
}

// TestRoundAfterTimedOutRound: a round that ends with votes still in flight
// returns its slots to the pool, and the next round that reuses them
// matches the same round run first.
func TestRoundAfterTimedOutRound(t *testing.T) {
	cfg := defaultRound(behaviors(4, 1, 1, 0), 4)
	first, err := Run(cfg, des.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	stalled := defaultRound(behaviors(6, 0, 0, 0), 4)
	stalled.Network = NetworkConfig{JitterlessDelay: 2}
	stalled.Timeout = 1
	res, err := Run(stalled, des.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.CorrectDecisions(1) != 0 {
		t.Fatalf("stalled round decided: %+v", res.Decisions)
	}
	again, err := Run(cfg, des.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Errorf("round after a timed-out round = %+v, want %+v", again, first)
	}
}

// TestRoundMatchesFreshHandles replays random rounds against a reference
// that schedules every vote in a fresh handle, as des.Schedule does: the
// pooled slots must deliver in the same order, so every decision time is
// the same.
func TestRoundMatchesFreshHandles(t *testing.T) {
	gen := des.NewRNG(77)
	for iter := 0; iter < 200; iter++ {
		n := 1 + gen.Intn(9)
		bs := make([]Behavior, n)
		for i := range bs {
			bs[i] = Behavior(1 + gen.Intn(4))
		}
		cfg := defaultRound(bs, 1+gen.Intn(n))
		cfg.Network = NetworkConfig{MeanDelay: 0.01, DropProbability: 0.2 * gen.Float64()}
		if gen.Bernoulli(0.3) {
			cfg.Network = NetworkConfig{JitterlessDelay: 0.01}
		}
		cfg.Timeout = 0.005 + 0.05*gen.Float64()
		seed := gen.Uint64()
		got, err := Run(cfg, des.NewRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		want := refRun(cfg, des.NewRNG(seed))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: pooled round %+v, fresh-handle round %+v", iter, got, want)
		}
	}
}

// refRun is Run with every vote scheduled through des.Schedule and a
// per-message closure: the delivery order the pooled slots must keep.
func refRun(cfg RoundConfig, rng *des.RNG) *RoundResult {
	n := len(cfg.Behaviors)
	var sim des.Simulation
	res := &RoundResult{Decisions: make([]Decision, n)}
	replicas := make([]*replica, n)
	for i := range replicas {
		replicas[i] = &replica{
			quorum: cfg.Quorum,
			silent: cfg.Behaviors[i] == Silent,
			voted:  make([]bool, n),
			out:    &res.Decisions[i],
			sim:    &sim,
		}
	}
	for i, b := range cfg.Behaviors {
		if b == Silent {
			continue
		}
		own := cfg.CorrectLabel
		if b == Wrong || b == Equivocating {
			own = cfg.WrongLabel
		}
		replicas[i].onVote(Vote{From: ReplicaID(i), Label: own})
		for j, to := range replicas {
			if j == i {
				continue
			}
			label := own
			if b == Equivocating {
				label = cfg.WrongLabel
				if j%2 == 0 {
					label = cfg.CorrectLabel
				}
			}
			res.MessagesSent++
			if cfg.Network.DropProbability > 0 && rng.Bernoulli(cfg.Network.DropProbability) {
				res.MessagesDropped++
				continue
			}
			delay := cfg.Network.JitterlessDelay
			if delay == 0 {
				delay = rng.Exp(cfg.Network.MeanDelay)
			}
			v, to := Vote{From: ReplicaID(i), Label: label}, to
			if _, err := sim.Schedule(delay, func() { to.onVote(v) }); err != nil {
				panic(err)
			}
		}
	}
	if err := sim.RunUntil(cfg.Timeout); err != nil {
		panic(err)
	}
	return res
}

func TestRoundRejectsNonFiniteTimeout(t *testing.T) {
	for _, timeout := range []float64{math.NaN(), math.Inf(1)} {
		cfg := defaultRound(behaviors(6, 0, 0, 0), 4)
		cfg.Timeout = timeout
		_, err := Run(cfg, des.NewRNG(1))
		var nf *des.NonFiniteError
		if !errors.As(err, &nf) || nf.Name != "timeout" {
			t.Errorf("timeout %g: err = %v, want a *des.NonFiniteError for the timeout", timeout, err)
		}
	}
}

// TestConcurrentRoundsMatchSerial: rounds running at once on several
// goroutines share the network pool and still match the same rounds run
// one after another.
func TestConcurrentRoundsMatchSerial(t *testing.T) {
	const goroutines, rounds = 4, 50
	cfg := func(k int) RoundConfig {
		c := defaultRound(behaviors(4, 1, k%2, 1-k%2), 4)
		c.Timeout = 0.005 + 0.001*float64(k%40)
		return c
	}
	want := make([]*RoundResult, goroutines*rounds)
	for k := range want {
		res, err := Run(cfg(k), des.NewRNG(uint64(k)))
		if err != nil {
			t.Fatal(err)
		}
		want[k] = res
	}
	got := make([]*RoundResult, len(want))
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for k := g; k < len(got); k += goroutines {
				res, err := Run(cfg(k), des.NewRNG(uint64(k)))
				if err != nil {
					errs <- err
					return
				}
				got[k] = res
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for k := range want {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Fatalf("round %d: concurrent %+v, serial %+v", k, got[k], want[k])
		}
	}
}

// roundChurn runs rounds of the protocol experiment's shape (six replicas,
// one wrong and one equivocating or silent, 5 ms mean delay) into one
// reused result, alternating the behaviors so both slab paths run.
func roundChurn(res *RoundResult, rng *des.RNG) func(i int) error {
	cfgs := [2]RoundConfig{
		defaultRound(behaviors(4, 1, 0, 1), 4),
		defaultRound(behaviors(4, 1, 1, 0), 4),
	}
	for k := range cfgs {
		cfgs[k].Network = NetworkConfig{MeanDelay: 0.005}
		cfgs[k].Timeout = 1
	}
	return func(i int) error { return RunInto(cfgs[i%2], rng, res) }
}

// TestRunIntoMatchesRun: RunInto into a result reused from other rounds
// gives Run's result.
func TestRunIntoMatchesRun(t *testing.T) {
	var res RoundResult
	round := roundChurn(&res, des.NewRNG(3))
	for i := 0; i < 10; i++ {
		if err := round(i); err != nil {
			t.Fatal(err)
		}
	}
	cfg := defaultRound(behaviors(4, 1, 1, 0), 4)
	want, err := Run(cfg, des.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	if err := RunInto(cfg, des.NewRNG(11), &res); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&res, want) {
		t.Errorf("RunInto into a reused result = %+v, Run = %+v", res, *want)
	}
}

// BenchmarkRoundNoAlloc runs one pooled voting round per iteration into a
// reused result. check.sh fails on any allocation.
func BenchmarkRoundNoAlloc(b *testing.B) {
	var res RoundResult
	round := roundChurn(&res, des.NewRNG(3))
	for i := 0; i < 10; i++ {
		if err := round(i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := round(i); err != nil {
			b.Fatal(err)
		}
	}
}
