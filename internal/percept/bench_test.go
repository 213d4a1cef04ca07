package percept

import (
	"testing"

	"nvrel/internal/des"
	"nvrel/internal/nvp"
	"nvrel/internal/voter"
)

func BenchmarkSimulationSixVersion(b *testing.B) {
	cfg := Config{
		Params:          nvp.DefaultSixVersion(),
		Rejuvenation:    true,
		Horizon:         2e5,
		WarmUp:          1e4,
		RequestInterval: 300,
	}
	master := des.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := New(cfg, master.Fork())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulationLabelVoting(b *testing.B) {
	cfg := Config{
		Params:          nvp.DefaultSixVersion(),
		Rejuvenation:    true,
		Horizon:         2e5,
		WarmUp:          1e4,
		RequestInterval: 300,
		Classes:         43,
	}
	master := des.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := New(cfg, master.Fork())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerceptStepNoAlloc steps a warmed label-voting System, with
// E13's four schemes deciding every request, one event at a time. Every
// timer is a re-armed handle, every action is bound in New and every
// request samples into reused buffers and tallies, so no event may
// allocate; check.sh fails on any allocation.
func BenchmarkPerceptStepNoAlloc(b *testing.B) {
	cfg := Config{
		Params:          nvp.DefaultSixVersion(),
		Rejuvenation:    true,
		Horizon:         1e6,
		RequestInterval: 300,
		Classes:         43,
		LabelSchemes:    []voter.LabelScheme{voter.Threshold{K: 4}, voter.Majority{}, voter.Plurality{}, voter.Unanimity{}},
	}
	sys, err := New(cfg, des.NewRNG(3))
	if err != nil {
		b.Fatal(err)
	}
	sys.armDynamics()
	sys.scheduleNextRequest()
	sys.startMeasuring()
	for i := 0; i < 10000; i++ {
		sys.sim.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sys.sim.Step() {
			b.Fatal("event list drained")
		}
	}
}
