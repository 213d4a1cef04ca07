package des

import (
	"errors"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %g outside [0,1)", v)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var acc Accumulator
	for i := 0; i < 200000; i++ {
		acc.Add(r.Float64())
	}
	if math.Abs(acc.Mean()-0.5) > 0.005 {
		t.Errorf("mean = %g, want ~0.5", acc.Mean())
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(13)
	const mean = 3.5
	var acc Accumulator
	for i := 0; i < 200000; i++ {
		acc.Add(r.Exp(mean))
	}
	if math.Abs(acc.Mean()-mean) > 0.05 {
		t.Errorf("exp mean = %g, want ~%g", acc.Mean(), mean)
	}
}

func TestRNGExpPanicsOnBadMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRNG(1).Exp(0)
}

func TestRNGIntnUniform(t *testing.T) {
	r := NewRNG(17)
	counts := make([]int, 5)
	const samples = 100000
	for i := 0; i < samples; i++ {
		counts[r.Intn(5)]++
	}
	for v, c := range counts {
		if math.Abs(float64(c)/samples-0.2) > 0.01 {
			t.Errorf("Intn(5) value %d frequency %g, want ~0.2", v, float64(c)/samples)
		}
	}
}

func TestRNGIntnPanicsOnBadBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGBernoulli(t *testing.T) {
	r := NewRNG(19)
	hits := 0
	const samples = 100000
	for i := 0; i < samples; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if math.Abs(float64(hits)/samples-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency %g", float64(hits)/samples)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(23)
	f1, f2 := r.Fork(), r.Fork()
	equal := 0
	for i := 0; i < 64; i++ {
		if f1.Uint64() == f2.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Errorf("forked streams collide on %d/64 draws", equal)
	}
}

// TestRNGSeedMatchesNewRNG: re-seeding a used generator in place gives
// NewRNG's stream, so Seed(r.Uint64()) continues as Fork would.
func TestRNGSeedMatchesNewRNG(t *testing.T) {
	r, master, twin := NewRNG(5), NewRNG(31), NewRNG(31)
	for i := 0; i < 3; i++ {
		r.Seed(master.Uint64())
		f := twin.Fork()
		for k := 0; k < 16; k++ {
			if a, b := r.Uint64(), f.Uint64(); a != b {
				t.Fatalf("fork %d draw %d: re-seeded %#x, Fork %#x", i, k, a, b)
			}
		}
	}
}

func TestSimulationOrdering(t *testing.T) {
	var s Simulation
	var order []int
	mustSchedule(t, &s, 3, func() { order = append(order, 3) })
	mustSchedule(t, &s, 1, func() { order = append(order, 1) })
	mustSchedule(t, &s, 2, func() { order = append(order, 2) })
	s.RunUntil(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 10 {
		t.Errorf("Now = %g, want 10", s.Now())
	}
	if s.Fired() != 3 {
		t.Errorf("Fired = %d", s.Fired())
	}
}

func TestSimulationTieBreakFIFO(t *testing.T) {
	var s Simulation
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		mustSchedule(t, &s, 1, func() { order = append(order, i) })
	}
	s.RunUntil(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v, want FIFO", order)
		}
	}
}

func TestSimulationCancel(t *testing.T) {
	var s Simulation
	fired := false
	h, err := s.Schedule(1, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	h.Cancel()
	if !h.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
	s.RunUntil(5)
	if fired {
		t.Error("canceled event fired")
	}
	// Canceling twice or canceling a nil handle is harmless.
	h.Cancel()
	var nilHandle *Handle
	nilHandle.Cancel()
}

func TestSimulationHorizonStopsClock(t *testing.T) {
	var s Simulation
	fired := false
	mustSchedule(t, &s, 100, func() { fired = true })
	s.RunUntil(50)
	if fired {
		t.Error("event beyond horizon fired")
	}
	if s.Now() != 50 {
		t.Errorf("Now = %g, want 50", s.Now())
	}
	// The event is still pending and fires on a later run.
	s.RunUntil(150)
	if !fired {
		t.Error("pending event did not fire on resumed run")
	}
}

func TestSimulationEventAtExactHorizonFires(t *testing.T) {
	var s Simulation
	fired := false
	mustSchedule(t, &s, 10, func() { fired = true })
	s.RunUntil(10)
	if !fired {
		t.Error("event at exact horizon did not fire")
	}
}

func TestSimulationNestedScheduling(t *testing.T) {
	var s Simulation
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			if _, err := s.Schedule(1, tick); err != nil {
				t.Errorf("nested schedule: %v", err)
			}
		}
	}
	mustSchedule(t, &s, 1, tick)
	s.RunUntil(100)
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if s.Now() != 100 {
		t.Errorf("Now = %g", s.Now())
	}
}

func TestScheduleValidation(t *testing.T) {
	var s Simulation
	if _, err := s.Schedule(-1, func() {}); !errors.Is(err, ErrTimeTravel) {
		t.Errorf("err = %v, want ErrTimeTravel", err)
	}
	if _, err := s.Schedule(math.NaN(), func() {}); !errors.Is(err, ErrTimeTravel) {
		t.Errorf("err = %v, want ErrTimeTravel", err)
	}
	if _, err := s.Schedule(1, nil); err == nil {
		t.Error("nil action accepted")
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	var s Simulation
	if s.Step() {
		t.Error("Step on empty simulation returned true")
	}
	h, _ := s.Schedule(1, func() {})
	h.Cancel()
	if s.Step() {
		t.Error("Step with only canceled events returned true")
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d after draining canceled", s.Pending())
	}
}

// TestSimulationReset: a reset simulation cancels what was pending,
// rewinds its clock and counters, and then runs as a fresh one does.
func TestSimulationReset(t *testing.T) {
	run := func(s *Simulation) []float64 {
		var fired []float64
		for _, d := range []float64{3, 1, 2, 1} {
			if _, err := s.Schedule(d, func() { fired = append(fired, s.Now()) }); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.RunUntil(2.5); err != nil {
			t.Fatal(err)
		}
		return fired
	}
	var fresh, reused Simulation
	want := run(&fresh)
	run(&reused)
	pending, _ := reused.Schedule(1, func() {})
	reused.Reset()
	if !pending.Canceled() || reused.Pending() != 0 || reused.Now() != 0 || reused.Fired() != 0 {
		t.Fatalf("after Reset: canceled %v, pending %d, now %g, fired %d",
			pending.Canceled(), reused.Pending(), reused.Now(), reused.Fired())
	}
	if got := run(&reused); !slices.Equal(got, want) {
		t.Errorf("reset simulation fired at %v, fresh one at %v", got, want)
	}
}

func TestAccumulatorKnownValues(t *testing.T) {
	var a Accumulator
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(v)
	}
	if a.N() != 8 {
		t.Errorf("N = %d", a.N())
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %g, want 5", a.Mean())
	}
	// Population variance of this classic dataset is 4; unbiased sample
	// variance is 32/7.
	if math.Abs(a.Variance()-32.0/7) > 1e-12 {
		t.Errorf("Variance = %g, want %g", a.Variance(), 32.0/7)
	}
}

func TestAccumulatorDegenerate(t *testing.T) {
	var a Accumulator
	if a.Variance() != 0 || a.StdErr() != 0 {
		t.Error("empty accumulator should report zero spread")
	}
	a.Add(3)
	if a.Variance() != 0 {
		t.Error("single sample should report zero variance")
	}
}

func TestSummaryContainsAndString(t *testing.T) {
	var a Accumulator
	for i := 0; i < 100; i++ {
		a.Add(float64(i % 10))
	}
	s := a.Summarize()
	if !s.Contains(s.Mean) {
		t.Error("CI does not contain its own mean")
	}
	if s.Contains(s.Hi + 1) {
		t.Error("CI contains value above Hi")
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestReplicate(t *testing.T) {
	// Each replication returns the mean of exponential samples; the
	// replication CI must cover the true mean.
	sum, err := Replicate(40, 99, func(rep int, rng *RNG) (float64, error) {
		var acc Accumulator
		for i := 0; i < 2000; i++ {
			acc.Add(rng.Exp(2))
		}
		return acc.Mean(), nil
	})
	if err != nil {
		t.Fatalf("Replicate: %v", err)
	}
	if !sum.Contains(2) {
		t.Errorf("CI %v does not contain true mean 2", sum)
	}
	if sum.N != 40 {
		t.Errorf("N = %d", sum.N)
	}
}

func TestReplicateErrors(t *testing.T) {
	if _, err := Replicate(0, 1, func(int, *RNG) (float64, error) { return 0, nil }); err == nil {
		t.Error("zero replications accepted")
	}
	wantErr := errors.New("boom")
	if _, err := Replicate(3, 1, func(rep int, _ *RNG) (float64, error) {
		if rep == 1 {
			return 0, wantErr
		}
		return 1, nil
	}); !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

func TestReplicateDeterministicAcrossRuns(t *testing.T) {
	run := func() Summary {
		s, err := Replicate(5, 1234, func(rep int, rng *RNG) (float64, error) {
			return rng.Float64(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed, different summaries: %v vs %v", a, b)
	}
}

func TestTimeWeighted(t *testing.T) {
	var w TimeWeighted
	w.Observe(0, 1)
	w.Observe(4, 0)
	w.Observe(6, 1)
	// [0,4): 1, [4,6): 0, [6,10): 1 -> (4 + 0 + 4)/10 = 0.8
	if got := w.Average(10); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("Average = %g, want 0.8", got)
	}
}

func TestTimeWeightedEmpty(t *testing.T) {
	var w TimeWeighted
	if w.Average(10) != 0 {
		t.Error("empty window should average 0")
	}
}

func TestTimeWeightedOutOfOrderPanics(t *testing.T) {
	var w TimeWeighted
	w.Observe(5, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	w.Observe(4, 0)
}

// Property: simulation clock is monotone regardless of scheduling pattern.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		var s Simulation
		last := -1.0
		ok := true
		for _, d := range delays {
			delay := float64(d) / 16
			if _, err := s.Schedule(delay, func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			}); err != nil {
				return false
			}
		}
		drain(&s)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: with ties in time and random cancellations, the events that
// fire are exactly the uncanceled ones, in sort.Slice (time, seq) order.
func TestEventHeapPopOrderProperty(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		r := NewRNG(seed)
		var s Simulation
		var all, fired []*Handle
		for i, n := 0, 1+r.Intn(300); i < n; i++ {
			var h *Handle
			// Few distinct delays, so most events tie in time.
			h = mustSchedule(t, &s, float64(r.Intn(8))/4, func() { fired = append(fired, h) })
			all = append(all, h)
		}
		var want []*Handle
		for _, h := range all {
			if r.Bernoulli(0.3) {
				h.Cancel()
			} else {
				want = append(want, h)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].time != want[j].time {
				return want[i].time < want[j].time
			}
			return want[i].seq < want[j].seq
		})
		drain(&s)
		if len(fired) != len(want) {
			t.Fatalf("seed %d: fired %d events, want %d", seed, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("seed %d: pop %d is (%g, %d), want (%g, %d)",
					seed, i, fired[i].time, fired[i].seq, want[i].time, want[i].seq)
			}
		}
	}
}

// Property: events scheduled and canceled from inside actions while the
// heap drains still fire in strictly increasing (time, seq) order, and
// every uncanceled event fires.
func TestEventHeapNestedScheduleProperty(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		r := NewRNG(seed)
		var s Simulation
		var all, fired []*Handle
		var schedule func()
		schedule = func() {
			var h *Handle
			h = mustSchedule(t, &s, float64(r.Intn(4))/2, func() {
				fired = append(fired, h)
				for k := r.Intn(3); k > 0 && len(all) < 500; k-- {
					schedule()
				}
				if r.Bernoulli(0.2) {
					all[r.Intn(len(all))].Cancel()
				}
			})
			all = append(all, h)
		}
		for i := 0; i < 20; i++ {
			schedule()
		}
		drain(&s)
		done := make(map[*Handle]bool, len(fired))
		for i, h := range fired {
			done[h] = true
			if i == 0 {
				continue
			}
			p := fired[i-1]
			if h.time < p.time || (h.time == p.time && h.seq <= p.seq) {
				t.Fatalf("seed %d: pop %d (%g, %d) after (%g, %d)", seed, i, h.time, h.seq, p.time, p.seq)
			}
		}
		for _, h := range all {
			if !h.Canceled() && !done[h] {
				t.Fatalf("seed %d: uncanceled event (%g, %d) never fired", seed, h.time, h.seq)
			}
		}
	}
}

// Property: under a random interleave of Schedule, Rearm and Cancel,
// issued both up front and from inside firing actions, every pop is the
// earliest (time, seq) event of a reference model of the live set, and
// the live set is empty once the heap drains: exactly the live events
// fire, in sorted order.
func TestEventHeapRearmCancelProperty(t *testing.T) {
	type key struct {
		time float64
		seq  uint64
	}
	for seed := uint64(1); seed <= 200; seed++ {
		r := NewRNG(seed)
		var s Simulation
		live := make(map[*Handle]key)
		owned := make([]Handle, 8)
		var all []*Handle
		fires := 0
		var mutate func()
		fire := func(h *Handle) {
			var next *Handle
			for c, k := range live {
				if next == nil || k.time < live[next].time || (k.time == live[next].time && k.seq < live[next].seq) {
					next = c
				}
			}
			if h != next {
				t.Fatalf("seed %d: fired (%g, %d), earliest live is (%g, %d)",
					seed, h.time, h.seq, live[next].time, live[next].seq)
			}
			delete(live, h)
			if fires++; fires < 400 {
				mutate()
			}
		}
		mutate = func() {
			for k := r.Intn(3); k >= 0; k-- {
				delay := float64(r.Intn(4)) / 2
				switch op := r.Intn(3); {
				case op == 0 && len(all) < 500:
					var h *Handle
					h = mustSchedule(t, &s, delay, func() { fire(h) })
					all = append(all, h)
					live[h] = key{h.time, h.seq}
				case op == 1:
					h := &owned[r.Intn(len(owned))]
					if err := s.Rearm(h, delay, func() { fire(h) }); err != nil {
						t.Fatalf("Rearm: %v", err)
					}
					live[h] = key{h.time, h.seq}
				default:
					h := &owned[r.Intn(len(owned))]
					if len(all) > 0 && r.Bernoulli(0.5) {
						h = all[r.Intn(len(all))]
					}
					h.Cancel()
					delete(live, h)
				}
				if s.Pending() != len(live) {
					t.Fatalf("seed %d: Pending = %d, live = %d", seed, s.Pending(), len(live))
				}
			}
		}
		for i := 0; i < 10; i++ {
			mutate()
		}
		drain(&s)
		if len(live) != 0 || s.Pending() != 0 {
			t.Fatalf("seed %d: %d live events never fired (Pending %d)", seed, len(live), s.Pending())
		}
	}
}

func TestRearm(t *testing.T) {
	var s Simulation
	var h Handle
	var at []float64
	fire := func() { at = append(at, s.Now()) }

	// Re-arming a pending handle moves it: it fires once, at the new time.
	if err := s.Rearm(&h, 5, fire); err != nil {
		t.Fatal(err)
	}
	if err := s.Rearm(&h, 2, fire); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d after re-arming a pending handle, want 1", s.Pending())
	}
	s.RunUntil(10)
	if len(at) != 1 || at[0] != 2 {
		t.Fatalf("fired at %v, want [2]", at)
	}

	// Cancel on a handle that already fired is a no-op.
	h.Cancel()
	if h.Canceled() {
		t.Error("Cancel after firing marked the handle canceled")
	}

	// Re-arming a fired handle makes it live again.
	if err := s.Rearm(&h, 1, fire); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(20)
	if len(at) != 2 || at[1] != 11 {
		t.Fatalf("fired at %v, want [2 11]", at)
	}

	// Re-arming a canceled handle makes it live again.
	if err := s.Rearm(&h, 1, fire); err != nil {
		t.Fatal(err)
	}
	h.Cancel()
	if !h.Canceled() || s.Pending() != 0 {
		t.Fatalf("Canceled = %v, Pending = %d after Cancel", h.Canceled(), s.Pending())
	}
	if err := s.Rearm(&h, 3, fire); err != nil {
		t.Fatal(err)
	}
	if h.Canceled() {
		t.Error("re-armed handle still reports Canceled")
	}
	s.RunUntil(30)
	if len(at) != 3 || at[2] != 23 {
		t.Fatalf("fired at %v, want [2 11 23]", at)
	}

	// A rejected re-arm leaves a pending handle untouched.
	if err := s.Rearm(&h, 4, fire); err != nil {
		t.Fatal(err)
	}
	if err := s.Rearm(&h, -1, fire); !errors.Is(err, ErrTimeTravel) {
		t.Errorf("err = %v, want ErrTimeTravel", err)
	}
	if err := s.Rearm(&h, 1, nil); err == nil {
		t.Error("nil action accepted")
	}
	if s.Pending() != 1 || h.Time() != 34 {
		t.Errorf("Pending = %d, Time = %g after rejected re-arms, want 1, 34", s.Pending(), h.Time())
	}
}

// A handle can re-arm itself from inside its own action: the periodic
// timer pattern.
func TestRearmFromOwnAction(t *testing.T) {
	var s Simulation
	var h Handle
	count := 0
	var tick Action
	tick = func() {
		count++
		if err := s.Rearm(&h, 1, tick); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Rearm(&h, 1, tick); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(10)
	if count != 10 || s.Pending() != 1 {
		t.Errorf("count = %d, Pending = %d, want 10, 1", count, s.Pending())
	}
}

func TestPendingCountsOnlyLiveEvents(t *testing.T) {
	var s Simulation
	var hs []*Handle
	for i := 0; i < 10; i++ {
		hs = append(hs, mustSchedule(t, &s, float64(i), func() {}))
	}
	for i := 0; i < 10; i += 2 {
		hs[i].Cancel()
	}
	if s.Pending() != 5 {
		t.Errorf("Pending = %d after canceling 5 of 10, want 5", s.Pending())
	}
	hs[0].Cancel() // already canceled
	if s.Pending() != 5 {
		t.Errorf("Pending = %d after a repeated Cancel, want 5", s.Pending())
	}
	s.Step()
	if s.Pending() != 4 || s.Now() != 1 {
		t.Errorf("Pending = %d, Now = %g after one Step, want 4, 1", s.Pending(), s.Now())
	}
}

func mustSchedule(t *testing.T, s *Simulation, delay float64, action Action) *Handle {
	t.Helper()
	h, err := s.Schedule(delay, action)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	return h
}

func TestQuantile(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.2, 1}, {0.4, 2}, {0.5, 3}, {0.9, 5}, {1, 5},
		{-1, 1}, {2, 5},
	}
	for _, tt := range tests {
		if got := Quantile(samples, tt.q); got != tt.want {
			t.Errorf("Quantile(%g) = %g, want %g", tt.q, got, tt.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty sample should return 0")
	}
	// The input slice must not be reordered.
	if samples[0] != 5 {
		t.Error("Quantile mutated its input")
	}
}
