package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// This file encodes a registry snapshot in Prometheus text exposition
// format (version 0.0.4), the wire format every Prometheus-compatible
// scraper speaks. Metric names in the registry use dots
// ("petri.solve.dense"); the encoder sanitizes them to the Prometheus
// charset ("petri_solve_dense"). Families are emitted in sorted name
// order within each kind so output is deterministic and diffable — the
// golden-file test depends on that.

// promName sanitizes a registry metric name into the Prometheus metric
// name charset [a-zA-Z0-9_:], mapping every other rune (dots, dashes,
// spaces) to '_' and prefixing '_' when the name starts with a digit.
func promName(name string) string {
	if name == "" {
		return "_"
	}
	b := make([]byte, 0, len(name)+1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if !ok {
			c = '_'
		}
		if i == 0 && c >= '0' && c <= '9' {
			b = append(b, '_')
		}
		b = append(b, c)
	}
	return string(b)
}

// promFloat formats a value the way Prometheus expects: shortest
// round-trippable decimal, with +Inf/-Inf/NaN spelled out.
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WritePrometheus encodes a point-in-time capture of the default
// registry in Prometheus text exposition format. It is what the serve
// daemon's /metrics endpoint returns.
func WritePrometheus(w io.Writer) error {
	return Capture().WritePrometheus(w)
}

// WritePrometheus encodes the snapshot in Prometheus text exposition
// format: counters and gauges as single samples, histograms as
// cumulative _bucket{le=...} series (ending with the mandatory +Inf
// bucket) plus _sum and _count.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	bw := &errWriter{w: w}
	for _, name := range sortedKeys(s.Counters) {
		p := promName(name)
		bw.line("# TYPE " + p + " counter")
		bw.line(p + " " + strconv.FormatInt(s.Counters[name], 10))
	}
	for _, name := range sortedKeys(s.Gauges) {
		p := promName(name)
		bw.line("# TYPE " + p + " gauge")
		bw.line(p + " " + promFloat(s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		p := promName(name)
		bw.line("# TYPE " + p + " histogram")
		var cum int64
		for i, bound := range h.Bounds {
			if i < len(h.Counts) {
				cum += h.Counts[i]
			}
			bw.line(p + `_bucket{le="` + promFloat(bound) + `"} ` + strconv.FormatInt(cum, 10))
		}
		bw.line(p + `_bucket{le="+Inf"} ` + strconv.FormatInt(h.Count, 10))
		bw.line(p + "_sum " + promFloat(h.Sum))
		bw.line(p + "_count " + strconv.FormatInt(h.Count, 10))
	}
	return bw.err
}

// WriteJSON encodes a capture of the default registry as indented JSON —
// the /metrics.json endpoint, and the same Snapshot shape the -metrics
// flag writes.
func WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Capture())
}

// errWriter latches the first write error so the encoder body stays free
// of per-line error plumbing.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) line(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s+"\n")
}
