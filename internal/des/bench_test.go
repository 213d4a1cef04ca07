package des

import "testing"

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkRNGExp(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Exp(3)
	}
}

// BenchmarkNormNoAlloc draws one ziggurat normal per iteration: the
// rand.Rand wrapping the stream stays on the stack. check.sh fails on any
// allocation.
func BenchmarkNormNoAlloc(b *testing.B) {
	r := NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Norm()
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	var s Simulation
	action := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(1, action); err != nil {
			b.Fatal(err)
		}
		s.Step()
	}
}

func BenchmarkEventHeapChurn(b *testing.B) {
	// 1000 pending events with continuous schedule/fire churn: the
	// steady-state load of the perception simulator.
	var s Simulation
	r := NewRNG(7)
	var reschedule func()
	reschedule = func() {
		if _, err := s.Schedule(r.Exp(1), reschedule); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		reschedule()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkRearmChurnNoAlloc: 1000 caller-owned timers kept pending while
// events fire and re-arm other timers, the lifecycle pattern of the
// perception simulator. Once the heap has grown, neither Rearm nor Step
// may allocate; check.sh fails on any allocation.
func BenchmarkRearmChurnNoAlloc(b *testing.B) {
	var s Simulation
	r := NewRNG(7)
	timers := make([]Handle, 1000)
	actions := make([]Action, len(timers))
	for i := range timers {
		h := &timers[i]
		actions[i] = func() {
			// Firing re-arms this timer and moves one other timer.
			if err := s.Rearm(h, r.Exp(1), actions[i]); err != nil {
				b.Fatal(err)
			}
			if j := r.Intn(len(timers)); j != i {
				if err := s.Rearm(&timers[j], r.Exp(1), actions[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	for i := range timers {
		if err := s.Rearm(&timers[i], r.Exp(1), actions[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkAccumulator(b *testing.B) {
	var a Accumulator
	for i := 0; i < b.N; i++ {
		a.Add(float64(i % 100))
	}
}
