package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"nvrel/internal/obs"
	"nvrel/internal/shadow"
)

// `nvrel audit` replays a run's numerics evidence — a -event-log JSONL
// stream and/or a /debug/flight dump — into one post-hoc report:
// cross-path divergence rate, worst accepted residuals, fallback
// frequency, and the per-path latency split. Both inputs hold the same
// obs.Event records, so one tally reads either. The same thresholds that
// gate a live daemon gate CI here: any -max-* flag violation makes the
// command exit non-zero, so a chaos or loadgen run whose numerics
// drifted fails the pipeline even though every request returned 200.

type auditConfig struct {
	eventLog string
	flight   string
	output   string

	maxDivergeRate  float64 // shadow diverge / comparisons (negative = no gate)
	maxResidual     float64 // worst accepted GS residual (negative = no gate)
	maxFallbackRate float64 // fallback solves / solves (negative = no gate)
}

// maxAuditLine bounds one JSONL record.
const maxAuditLine = 1 << 20

// auditPath is one solver path's share of the run: its compute records,
// plus the verdicts on solves that took it.
type auditPath struct {
	Count           int     `json:"count"`
	MeanLatency     float64 `json:"mean_latency_seconds"`
	MaxLatency      float64 `json:"max_latency_seconds"`
	WorstResidual   float64 `json:"worst_residual,omitempty"`
	ShadowAgree     int     `json:"shadow_agree,omitempty"`
	ShadowDiverge   int     `json:"shadow_diverge,omitempty"`
	ShadowSkipped   int     `json:"shadow_skipped,omitempty"`
	ShadowErrors    int     `json:"shadow_errors,omitempty"`
	totalLatencySum float64
}

// auditTally is everything the records say, whichever input they came
// from.
type auditTally struct {
	Records       int                   `json:"records"`
	Requests      int                   `json:"requests"` // solve + batch records
	RequestErrors int                   `json:"request_errors"`
	CacheHits     int                   `json:"cache_hits"`
	Solves        int                   `json:"solves"` // compute records
	Fallbacks     int                   `json:"fallbacks"`
	WorstResidual float64               `json:"worst_residual"`
	Comparisons   int                   `json:"comparisons"` // shadow agree + diverge
	Agree         int                   `json:"agree"`
	Diverge       int                   `json:"diverge"`
	Skipped       int                   `json:"skipped"`
	ShadowErrors  int                   `json:"shadow_errors"`
	WorstPiDelta  float64               `json:"worst_pi_delta"`
	Paths         map[string]*auditPath `json:"paths,omitempty"`
	DivergeRate   float64               `json:"diverge_rate"`
	FallbackRate  float64               `json:"fallback_rate"`
}

type auditReport struct {
	Manifest   obs.Manifest `json:"manifest"`
	EventLog   string       `json:"event_log,omitempty"`
	FlightDump string       `json:"flight_dump,omitempty"`
	auditTally
	Violations []string `json:"gate_violations,omitempty"`
}

func cmdAudit(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("audit", flag.ContinueOnError)
	fs.SetOutput(out)
	var cfg auditConfig
	fs.StringVar(&cfg.eventLog, "event-log", "", "replay this JSON-lines event stream (serve -event-log output)")
	fs.StringVar(&cfg.flight, "flight", "", "replay this /debug/flight dump (JSON)")
	fs.StringVar(&cfg.output, "o", "", "write the audit report as JSON to this file")
	fs.Float64Var(&cfg.maxDivergeRate, "max-diverge-rate", -1, "fail if cross-path divergences exceed this fraction of comparisons (negative = off)")
	fs.Float64Var(&cfg.maxResidual, "max-residual", -1, "fail if any accepted GS residual exceeds this (negative = off)")
	fs.Float64Var(&cfg.maxFallbackRate, "max-fallback-rate", -1, "fail if fallback solves exceed this fraction of solves (negative = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.eventLog == "" && cfg.flight == "" {
		return fmt.Errorf("audit: nothing to audit; give -event-log and/or -flight")
	}

	start := time.Now()
	rep := auditReport{
		Manifest:   obs.NewManifest(),
		EventLog:   cfg.eventLog,
		FlightDump: cfg.flight,
	}
	rep.Manifest.Command = "audit"
	var recs []obs.Event
	for _, in := range []struct {
		path   string
		flight bool
	}{{cfg.eventLog, false}, {cfg.flight, true}} {
		if in.path == "" {
			continue
		}
		got, err := readAuditFile(in.path, in.flight)
		if err != nil {
			return fmt.Errorf("audit: %w", err)
		}
		recs = append(recs, got...)
	}
	rep.auditTally = tallyAudit(recs)
	rep.Violations = auditGates(cfg, &rep.auditTally)
	rep.Manifest.WallSeconds = time.Since(start).Seconds()

	writeAuditSummary(out, &rep.auditTally)
	if cfg.output != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fmt.Errorf("audit: %w", err)
		}
		if err := os.WriteFile(cfg.output, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("audit: %w", err)
		}
		fmt.Fprintf(out, "audit: report written to %s\n", cfg.output)
	}
	if len(rep.Violations) > 0 {
		return fmt.Errorf("audit: %d gate violation(s): %s", len(rep.Violations), strings.Join(rep.Violations, "; "))
	}
	return nil
}

func readAuditFile(path string, flight bool) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decodeAuditRecords(f, path, flight)
}

// auditInputError locates an input that did not decode: its name and,
// for a JSONL stream, the 1-based line.
type auditInputError struct {
	name string
	line int
	err  error
}

func (e *auditInputError) Error() string {
	if e.line > 0 {
		return fmt.Sprintf("%s:%d: %v", e.name, e.line, e.err)
	}
	return fmt.Sprintf("%s: %v", e.name, e.err)
}

func (e *auditInputError) Unwrap() error { return e.err }

// decodeAuditRecords reads one audit input: a JSONL event stream (one
// record per line, blank lines skipped, each line at most maxAuditLine
// bytes) or, with flight set, a {"flight": [...]} document. Any failure
// is an *auditInputError.
func decodeAuditRecords(r io.Reader, name string, flight bool) ([]obs.Event, error) {
	if flight {
		var doc struct {
			Flight []obs.Event `json:"flight"`
		}
		data, err := io.ReadAll(r)
		if err == nil {
			err = json.Unmarshal(data, &doc)
		}
		if err != nil {
			return nil, &auditInputError{name: name, err: err}
		}
		return doc.Flight, nil
	}
	var recs []obs.Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), maxAuditLine)
	line := 0
	for sc.Scan() {
		line++
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, &auditInputError{name: name, line: line, err: err}
		}
		recs = append(recs, e)
	}
	if err := sc.Err(); err != nil {
		// The scanner stopped inside the line after the last one it
		// returned.
		return nil, &auditInputError{name: name, line: line + 1, err: err}
	}
	return recs, nil
}

// tallyAudit folds the records into one report body. A record present
// in both inputs (a run's event log and its /debug/flight dump) counts
// once. Request records feed the request totals, compute records the
// per-path split, residual and fallback tallies, and verdict records the
// shadow tallies of their primary path.
func tallyAudit(recs []obs.Event) auditTally {
	t := auditTally{Paths: map[string]*auditPath{}}
	seen := make(map[obs.Event]bool, len(recs))
	for _, e := range recs {
		key := e
		key.Time = e.Time.UTC()
		if seen[key] {
			continue
		}
		seen[key] = true
		t.Records++
		switch e.Method {
		case "solve", "batch":
			t.Requests++
			if e.Error != "" || e.Status >= 400 {
				t.RequestErrors++
			}
			if e.Cache == "hit" {
				t.CacheHits++
			}
		case "compute":
			t.Solves++
			if e.Fallback != "" || strings.Contains(e.Path, "fallback") {
				t.Fallbacks++
			}
			t.WorstResidual = max(t.WorstResidual, e.Residual)
			p := t.pathFor(e)
			p.Count++
			p.totalLatencySum += e.LatencySeconds
			p.MaxLatency = max(p.MaxLatency, e.LatencySeconds)
			p.WorstResidual = max(p.WorstResidual, e.Residual)
		case "shadow":
			p := t.pathFor(e)
			switch e.Verdict {
			case shadow.VerdictAgree:
				t.Agree++
				p.ShadowAgree++
			case shadow.VerdictDiverge:
				t.Diverge++
				p.ShadowDiverge++
				t.WorstPiDelta = max(t.WorstPiDelta, e.PiDelta)
			case shadow.VerdictSkipped:
				t.Skipped++
				p.ShadowSkipped++
			case shadow.VerdictError:
				t.ShadowErrors++
				p.ShadowErrors++
			}
		}
	}
	for _, p := range t.Paths {
		if p.Count > 0 {
			p.MeanLatency = p.totalLatencySum / float64(p.Count)
		}
	}
	t.Comparisons = t.Agree + t.Diverge
	if t.Comparisons > 0 {
		t.DivergeRate = float64(t.Diverge) / float64(t.Comparisons)
	}
	if t.Solves > 0 {
		t.FallbackRate = float64(t.Fallbacks) / float64(t.Solves)
	}
	return t
}

// pathFor buckets a compute or verdict record by its solve path; the
// general MRGP solver reports none and is bucketed by solver.
func (t *auditTally) pathFor(e obs.Event) *auditPath {
	name := e.Path
	if name == "" {
		name = e.Solver
	}
	if name == "" {
		name = "unknown"
	}
	p := t.Paths[name]
	if p == nil {
		p = &auditPath{}
		t.Paths[name] = p
	}
	return p
}

func auditGates(cfg auditConfig, t *auditTally) []string {
	var v []string
	if cfg.maxDivergeRate >= 0 && t.DivergeRate > cfg.maxDivergeRate {
		v = append(v, fmt.Sprintf("diverge rate %.4g > max %.4g", t.DivergeRate, cfg.maxDivergeRate))
	}
	if cfg.maxResidual >= 0 && t.WorstResidual > cfg.maxResidual {
		v = append(v, fmt.Sprintf("worst residual %.3g > max %.3g", t.WorstResidual, cfg.maxResidual))
	}
	if cfg.maxFallbackRate >= 0 && t.FallbackRate > cfg.maxFallbackRate {
		v = append(v, fmt.Sprintf("fallback rate %.4g > max %.4g", t.FallbackRate, cfg.maxFallbackRate))
	}
	return v
}

func writeAuditSummary(out io.Writer, t *auditTally) {
	fmt.Fprintf(out, "audit: %d records: %d requests (%d errors, %d cache hits), %d solves (%d fallbacks, worst residual %.3g)\n",
		t.Records, t.Requests, t.RequestErrors, t.CacheHits, t.Solves, t.Fallbacks, t.WorstResidual)
	fmt.Fprintf(out, "audit: shadow: %d comparisons (%d agree, %d diverge), %d skipped, %d errors, worst |dpi| %.3g\n",
		t.Comparisons, t.Agree, t.Diverge, t.Skipped, t.ShadowErrors, t.WorstPiDelta)
	names := make([]string, 0, len(t.Paths))
	for name := range t.Paths {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := t.Paths[name]
		fmt.Fprintf(out, "audit: path %-22s %5d solves  mean %.4fs  max %.4fs\n",
			name, p.Count, p.MeanLatency, p.MaxLatency)
	}
	fmt.Fprintf(out, "audit: diverge rate %.4g, fallback rate %.4g\n", t.DivergeRate, t.FallbackRate)
}
