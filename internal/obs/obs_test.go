package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// withEnabled runs f with collection forced on, restoring the previous
// state afterwards.
func withEnabled(t testing.TB, f func()) {
	t.Helper()
	prev := Enable()
	defer SetEnabled(prev)
	f()
}

func TestDisabledMetricsStayZero(t *testing.T) {
	prev := Disable()
	defer SetEnabled(prev)
	c := CounterFor("test.disabled.counter")
	g := GaugeFor("test.disabled.gauge")
	h := HistogramFor("test.disabled.hist", []float64{1, 10})
	c.Add(5)
	g.Set(3.5)
	h.Observe(4)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Errorf("disabled metrics recorded: counter=%d gauge=%g hist=%d",
			c.Value(), g.Value(), h.Count())
	}
}

func TestCounterGaugeHistogramTiming(t *testing.T) {
	withEnabled(t, func() {
		c := CounterFor("test.counter")
		base := c.Value()
		c.Inc()
		c.Add(4)
		if got := c.Value() - base; got != 5 {
			t.Errorf("counter = %d, want 5", got)
		}

		g := GaugeFor("test.gauge")
		g.Set(2.25)
		if g.Value() != 2.25 {
			t.Errorf("gauge = %g, want 2.25", g.Value())
		}

		h := HistogramFor("test.hist", []float64{1, 10, 100})
		for _, v := range []float64{0.5, 5, 50, 500} {
			h.Observe(v)
		}
		if h.Count() != 4 {
			t.Errorf("hist count = %d, want 4", h.Count())
		}

		// A latency is a histogram of seconds.
		lat := HistogramFor("test.timing.seconds", []float64{0.001, 0.01})
		lat.Observe((3 * time.Millisecond).Seconds())
		lat.Observe((500 * time.Microsecond).Seconds())
		if hs := Capture().Histograms["test.timing.seconds"]; hs.Count != 2 || hs.Counts[0] != 1 || hs.Counts[1] != 1 || hs.Sum != 0.0035 {
			t.Errorf("latency histogram = %+v, want one sample each in (0, 1ms] and (1ms, 10ms], sum 3.5ms", hs)
		}
	})
}

func TestInterningSharesCells(t *testing.T) {
	if CounterFor("test.shared") != CounterFor("test.shared") {
		t.Error("CounterFor returned distinct cells for one name")
	}
	if HistogramFor("test.shared.h", nil) != HistogramFor("test.shared.h", []float64{1}) {
		t.Error("HistogramFor returned distinct cells for one name")
	}
}

func TestNilHandlesAreInert(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
	)
	c.Inc()
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil handles recorded values")
	}
}

func TestSnapshotRoundTripsJSON(t *testing.T) {
	withEnabled(t, func() {
		CounterFor("test.snap.counter").Add(7)
		GaugeFor("test.snap.gauge").Set(1.5)
		HistogramFor("test.snap.hist", []float64{2, 4}).Observe(3)

		s := Capture()
		if s.Counters["test.snap.counter"] < 7 {
			t.Errorf("snapshot counter = %d, want >= 7", s.Counters["test.snap.counter"])
		}
		if s.Gauges["test.snap.gauge"] != 1.5 {
			t.Errorf("snapshot gauge = %g", s.Gauges["test.snap.gauge"])
		}
		hs := s.Histograms["test.snap.hist"]
		if hs.Count < 1 || len(hs.Counts) != len(hs.Bounds)+1 {
			t.Errorf("snapshot histogram malformed: %+v", hs)
		}

		data, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back Snapshot
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if back.Counters["test.snap.counter"] != s.Counters["test.snap.counter"] {
			t.Error("counter lost in JSON round trip")
		}
	})
}

func TestResetZeroesEverything(t *testing.T) {
	withEnabled(t, func() {
		c := CounterFor("test.reset.counter")
		h := HistogramFor("test.reset.hist", []float64{1})
		c.Add(3)
		h.Observe(2)
		Reset()
		if c.Value() != 0 || h.Count() != 0 {
			t.Errorf("reset left counter=%d hist=%d", c.Value(), h.Count())
		}
	})
}

func TestManifestFieldsPopulated(t *testing.T) {
	m := NewManifest()
	if m.GoVersion == "" || m.GOOS == "" || m.NumCPU < 1 || m.GOMAXPROCS < 1 || m.Timestamp == "" {
		t.Errorf("manifest incomplete: %+v", m)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	withEnabled(t, func() {
		c := CounterFor("test.concurrent.counter")
		h := HistogramFor("test.concurrent.hist", []float64{10})
		base := c.Value()
		var wg sync.WaitGroup
		const workers, per = 8, 1000
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					c.Inc()
					h.Observe(float64(i % 20))
				}
			}()
		}
		wg.Wait()
		if got := c.Value() - base; got != workers*per {
			t.Errorf("concurrent counter = %d, want %d", got, workers*per)
		}
	})
}

// BenchmarkObsDisabledNoAlloc guards the zero-overhead-when-disabled
// contract: with collection off, counters, gauges and histograms must not
// allocate. check.sh runs every NoAlloc benchmark with
// -benchtime=1x and fails on a nonzero allocs/op.
func BenchmarkObsDisabledNoAlloc(b *testing.B) {
	prev := Disable()
	defer SetEnabled(prev)
	c := CounterFor("bench.disabled.counter")
	g := GaugeFor("bench.disabled.gauge")
	h := HistogramFor("bench.disabled.hist", []float64{1, 10, 100})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		c.Add(3)
		g.Set(float64(i))
		h.Observe(float64(i))
	}
}

// BenchmarkObsEnabledNoAlloc guards the stronger property that even the
// enabled paths are allocation-free, so flipping -metrics on never turns
// an allocation-free solver loop into a GC workload.
func BenchmarkObsEnabledNoAlloc(b *testing.B) {
	prev := Enable()
	defer SetEnabled(prev)
	c := CounterFor("bench.enabled.counter")
	g := GaugeFor("bench.enabled.gauge")
	h := HistogramFor("bench.enabled.hist", []float64{1, 10, 100})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(float64(i))
		h.Observe(float64(i))
	}
}

func TestPercentileNearestRank(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3} // unsorted on purpose; input must not be mutated
	orig := append([]float64(nil), samples...)
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.2, 1}, {0.5, 3}, {0.8, 4}, {0.9, 5}, {0.95, 5}, {1, 5},
	}
	for _, c := range cases {
		if got := Percentile(samples, c.q); got != c.want {
			t.Errorf("Percentile(q=%g) = %g, want %g", c.q, got, c.want)
		}
	}
	for i := range samples {
		if samples[i] != orig[i] {
			t.Fatalf("Percentile mutated its input: %v", samples)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile(empty) = %g, want 0", got)
	}
	if got := Percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("Percentile(single, 0.99) = %g, want 7", got)
	}
}
