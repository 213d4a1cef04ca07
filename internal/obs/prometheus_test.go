package obs

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the exposition format against a golden
// file: name sanitization ('.' and leading digits), cumulative histogram
// buckets ending in +Inf.
func TestWritePrometheusGolden(t *testing.T) {
	s := Snapshot{
		Counters: map[string]int64{
			"petri.solve.dense": 3,
			"0weird.name":       1,
		},
		Gauges: map[string]float64{
			"linalg.gs.residual": 1.5e-10,
		},
		Histograms: map[string]HistogramSnapshot{
			"linalg.uniform.k": {
				Bounds: []float64{1, 10, 100},
				Counts: []int64{2, 3, 0, 1},
				Count:  6,
				Sum:    123.5,
			},
		},
	}
	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	want, err := os.ReadFile("testdata/prometheus.golden")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("prometheus output differs from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWritePrometheusBucketCumulativity checks the histogram invariant
// directly: each _bucket value must be >= the previous and the +Inf
// bucket must equal _count.
func TestWritePrometheusBucketCumulativity(t *testing.T) {
	s := Snapshot{
		Histograms: map[string]HistogramSnapshot{
			"h": {Bounds: []float64{1, 2, 3}, Counts: []int64{5, 0, 2, 1}, Count: 8, Sum: 10},
		},
	}
	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`h_bucket{le="1"} 5`,
		`h_bucket{le="2"} 5`,
		`h_bucket{le="3"} 7`,
		`h_bucket{le="+Inf"} 8`,
		`h_count 8`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestWritePrometheusCoversEveryInternedMetric captures the live
// registry and asserts each interned metric yields exactly one TYPE
// family in the exposition.
func TestWritePrometheusCoversEveryInternedMetric(t *testing.T) {
	withEnabled(t, func() {
		CounterFor("test.prom.counter").Inc()
		GaugeFor("test.prom.gauge").Set(1)
		HistogramFor("test.prom.hist", []float64{1, 2}).Observe(1.5)
	})
	snap := Capture()
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	families := make(map[string]int)
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name := strings.Fields(rest)[0]
			families[name]++
		}
	}
	total := len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms)
	if len(families) != total {
		t.Errorf("exposition has %d families, registry has %d metrics", len(families), total)
	}
	for name, n := range families {
		if n != 1 {
			t.Errorf("family %q emitted %d times, want exactly once", name, n)
		}
	}
	for _, want := range []string{"test_prom_counter", "test_prom_gauge", "test_prom_hist"} {
		if families[want] != 1 {
			t.Errorf("interned metric %q missing from exposition", want)
		}
	}
}

func TestPromNameSanitization(t *testing.T) {
	cases := map[string]string{
		"petri.solve.dense": "petri_solve_dense",
		"already_clean:ok":  "already_clean:ok",
		"9starts.with.num":  "_9starts_with_num",
		"spaces and-dash":   "spaces_and_dash",
		"":                  "_",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHistogramForRejectsNaNBounds(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("HistogramFor accepted NaN bound")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "test.bad.nan") {
			t.Errorf("panic %v does not name the offending histogram", r)
		}
	}()
	HistogramFor("test.bad.nan", []float64{1, math.NaN(), 3})
}

func TestHistogramForRejectsNonMonotonicBounds(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("HistogramFor accepted non-monotonic bounds")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "test.bad.order") {
			t.Errorf("panic %v does not name the offending histogram", r)
		}
	}()
	HistogramFor("test.bad.order", []float64{1, 3, 2})
}

func TestHistogramForRejectsDuplicateBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("HistogramFor accepted duplicate bounds")
		}
	}()
	HistogramFor("test.bad.dup", []float64{1, 2, 2})
}

func TestWriteJSONSnapshot(t *testing.T) {
	withEnabled(t, func() {
		CounterFor("test.json.counter").Inc()
	})
	var buf bytes.Buffer
	if err := WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(buf.String(), `"test.json.counter"`) {
		t.Error("JSON snapshot missing interned counter")
	}
}
