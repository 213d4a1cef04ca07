package experiments

import (
	"math"
	"reflect"
	"testing"

	"nvrel/internal/des"
	"nvrel/internal/nvp"
	"nvrel/internal/parallel"
	"nvrel/internal/percept"
)

// atWorkers runs f with the worker count pinned to n and restores the
// previous setting afterwards.
func atWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	prev := parallel.SetWorkers(n)
	defer parallel.SetWorkers(prev)
	f()
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestSweepsWorkerCountInvariant: every figure sweep (E3-E7) must produce
// element-wise identical results at one worker and at many — the parallel
// engine claims bit-identity with the serial order, not approximate
// agreement.
func TestSweepsWorkerCountInvariant(t *testing.T) {
	sweeps := []struct {
		name string
		run  func() (Series, error)
	}{
		{"fig3", func() (Series, error) { return RunFig3(nil) }},
		{"fig4a", func() (Series, error) { return RunFig4a(nil) }},
		{"fig4b", func() (Series, error) { return RunFig4b(nil) }},
		{"fig4c", func() (Series, error) { return RunFig4c(nil) }},
		{"fig4d", func() (Series, error) { return RunFig4d(nil) }},
	}
	for _, sw := range sweeps {
		var serial, wide Series
		var errSerial, errWide error
		atWorkers(t, 1, func() { serial, errSerial = sw.run() })
		atWorkers(t, 7, func() { wide, errWide = sw.run() })
		if errSerial != nil || errWide != nil {
			t.Fatalf("%s: serial err = %v, wide err = %v", sw.name, errSerial, errWide)
		}
		if len(serial.Points) != len(wide.Points) {
			t.Fatalf("%s: %d points serial, %d wide", sw.name, len(serial.Points), len(wide.Points))
		}
		for i := range serial.Points {
			s, w := serial.Points[i], wide.Points[i]
			if !sameFloat(s.X, w.X) || !sameFloat(s.FourVersion, w.FourVersion) || !sameFloat(s.SixVersion, w.SixVersion) {
				t.Errorf("%s point %d: serial %+v, wide %+v", sw.name, i, s, w)
			}
		}
	}
}

// TestReplicateWorkerCountInvariant: the DES replication engine must give
// the exact same confidence interval for a fixed seed at any worker count
// (substreams are pre-forked serially, accumulation is in rep order).
func TestReplicateWorkerCountInvariant(t *testing.T) {
	run := func() des.Summary {
		s, err := des.Replicate(64, 20240805, func(rep int, rng *des.RNG) (float64, error) {
			// A sample whose value depends on the stream state, so any
			// worker-dependent stream handoff would change the summary.
			v := 0.0
			for k := 0; k < 10+rep%5; k++ {
				v += rng.Float64()
			}
			return v, nil
		})
		if err != nil {
			t.Fatalf("Replicate: %v", err)
		}
		return s
	}
	var base des.Summary
	atWorkers(t, 1, func() { base = run() })
	for _, n := range []int{2, 7} {
		var got des.Summary
		atWorkers(t, n, func() { got = run() })
		if got != base {
			t.Errorf("workers=%d: summary %+v, want %+v", n, got, base)
		}
	}
}

// TestSimulationWorkerCountInvariant: the full event-level simulator,
// replicated through the parallel engine, reproduces identical estimates
// for a fixed seed at every worker count.
func TestSimulationWorkerCountInvariant(t *testing.T) {
	cfg := percept.Config{
		Params:          nvp.DefaultSixVersion(),
		Rejuvenation:    true,
		Horizon:         20000,
		RequestInterval: 120,
	}
	run := func() percept.Estimate {
		est, err := percept.Replicate(cfg, 8, 424242)
		if err != nil {
			t.Fatalf("Replicate: %v", err)
		}
		return *est
	}
	var base percept.Estimate
	atWorkers(t, 1, func() { base = run() })
	for _, n := range []int{2, 7} {
		var got percept.Estimate
		atWorkers(t, n, func() { got = run() })
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d: estimate differs from serial\n got: %+v\nwant: %+v", n, got, base)
		}
	}
}
