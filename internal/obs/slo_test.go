package obs

import (
	"encoding/json"
	"testing"
	"time"
)

// testSLO returns a tracker with a deterministic fake clock the test
// can advance.
func testSLO(cfg SLOConfig) (*SLOTracker, *time.Time) {
	tr := NewSLOTracker(cfg)
	now := time.Unix(10_000, 0)
	tr.now = func() time.Time { return now }
	return tr, &now
}

func TestSLOEmptyWindowIsHealthy(t *testing.T) {
	tr, _ := testSLO(SLOConfig{})
	rep := tr.Report()
	if !rep.Healthy || rep.Requests != 0 || rep.Availability != 1 {
		t.Errorf("empty report = %+v", rep)
	}
	var nilTr *SLOTracker
	nilTr.Record(time.Second, true)
	if rep := nilTr.Report(); !rep.Healthy {
		t.Error("nil tracker unhealthy")
	}
}

func TestSLODefaultsAndClamp(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{Availability: 1.0, LatencyP: 2})
	if tr.cfg.Availability >= 1 || tr.cfg.LatencyP >= 1 {
		t.Errorf("objectives not clamped below 1: %+v", tr.cfg)
	}
	if tr.cfg.Window != 5*time.Minute || tr.cfg.Slices != 30 || tr.cfg.Latency != time.Second {
		t.Errorf("defaults not applied: %+v", tr.cfg)
	}
	rep := tr.Report()
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report not JSON-encodable: %v", err)
	}
}

func TestSLOAvailabilityBurn(t *testing.T) {
	tr, _ := testSLO(SLOConfig{Availability: 0.99})
	for i := 0; i < 98; i++ {
		tr.Record(time.Millisecond, false)
	}
	tr.Record(time.Millisecond, true)
	tr.Record(time.Millisecond, true)
	rep := tr.Report()
	if rep.Requests != 100 || rep.Errors != 2 {
		t.Fatalf("window counts = %d/%d", rep.Requests, rep.Errors)
	}
	if rep.Availability != 0.98 {
		t.Errorf("availability = %v", rep.Availability)
	}
	// 2% errors against a 1% budget: burning at 2x.
	if rep.AvailabilityBurnRate < 1.99 || rep.AvailabilityBurnRate > 2.01 {
		t.Errorf("availability burn = %v, want ~2", rep.AvailabilityBurnRate)
	}
	if rep.Healthy {
		t.Error("burn rate 2 reported healthy")
	}
}

func TestSLOLatencyBurn(t *testing.T) {
	// p99 <= 1s objective; feed 10% of requests at 4s (well above the
	// threshold octave) — slow fraction ~0.1 against a 0.01 budget.
	tr, _ := testSLO(SLOConfig{LatencyP: 0.99, Latency: time.Second})
	for i := 0; i < 90; i++ {
		tr.Record(10*time.Millisecond, false)
	}
	for i := 0; i < 10; i++ {
		tr.Record(4*time.Second, false)
	}
	rep := tr.Report()
	if rep.SlowFraction < 0.09 || rep.SlowFraction > 0.11 {
		t.Errorf("slow fraction = %v, want ~0.1", rep.SlowFraction)
	}
	if rep.LatencyBurnRate < 9 || rep.LatencyBurnRate > 11 {
		t.Errorf("latency burn = %v, want ~10", rep.LatencyBurnRate)
	}
	if rep.Healthy {
		t.Error("latency burn 10x reported healthy")
	}
	if rep.QuantileSeconds < 1 {
		t.Errorf("p99 estimate = %vs, want >= 1s with 10%% at 4s", rep.QuantileSeconds)
	}

	// All-fast traffic stays healthy.
	tr2, _ := testSLO(SLOConfig{})
	for i := 0; i < 1000; i++ {
		tr2.Record(5*time.Millisecond, false)
	}
	if rep := tr2.Report(); !rep.Healthy || rep.LatencyBurnRate != 0 {
		t.Errorf("fast traffic report = %+v", rep)
	}
}

func TestSLOWindowExpiry(t *testing.T) {
	tr, now := testSLO(SLOConfig{Window: 30 * time.Second, Slices: 3})
	for i := 0; i < 10; i++ {
		tr.Record(time.Millisecond, true)
	}
	if rep := tr.Report(); rep.Errors != 10 {
		t.Fatalf("errors = %d, want 10", rep.Errors)
	}
	// One slice (10s) later the bad slice is still in the window...
	*now = now.Add(10 * time.Second)
	tr.Record(time.Millisecond, false)
	if rep := tr.Report(); rep.Errors != 10 || rep.Requests != 11 {
		t.Fatalf("after 10s: %d/%d, want 11/10", rep.Requests, rep.Errors)
	}
	// ...but a full window later it has aged out.
	*now = now.Add(40 * time.Second)
	tr.Record(time.Millisecond, false)
	rep := tr.Report()
	if rep.Errors != 0 || rep.Requests != 1 {
		t.Errorf("after window expiry: %d requests / %d errors, want 1/0", rep.Requests, rep.Errors)
	}
	if !rep.Healthy {
		t.Error("recovered window reported unhealthy")
	}
}

// TestSLOSingleRequestUnderThreshold: one 0.55 s request sits in the same
// log2 octave as the 1 s objective. It is not slow, so the window is
// healthy with a zero slow fraction, and the reported p99 cannot exceed
// the largest latency actually recorded.
func TestSLOSingleRequestUnderThreshold(t *testing.T) {
	tr, _ := testSLO(SLOConfig{})
	tr.Record(550*time.Millisecond, false)
	rep := tr.Report()
	if !rep.Healthy || rep.SlowFraction != 0 || rep.LatencyBurnRate != 0 {
		t.Errorf("report = %+v, want healthy with slow fraction 0", rep)
	}
	if rep.QuantileSeconds > 0.55 {
		t.Errorf("p99 = %vs, above the only recorded latency 0.55s", rep.QuantileSeconds)
	}

	// A request exactly at the objective is not slower than it; one just
	// above is.
	tr2, _ := testSLO(SLOConfig{})
	tr2.Record(time.Second, false)
	tr2.Record(time.Second+time.Nanosecond, false)
	if rep := tr2.Report(); rep.SlowFraction != 0.5 {
		t.Errorf("slow fraction = %v, want 0.5", rep.SlowFraction)
	}
}
