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
// frequency, and the per-path latency split. The same thresholds that
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

// auditPath is one solver path's share of the run.
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

type auditEvents struct {
	Total          int `json:"total"`
	Solves         int `json:"solves"`
	Errors         int `json:"errors"`
	CacheHits      int `json:"cache_hits"`
	ShadowDiverged int `json:"shadow_diverged"`
	ShadowErrors   int `json:"shadow_errors"`
}

type auditFlight struct {
	Records       int     `json:"records"`
	Comparisons   int     `json:"comparisons"` // shadow agree + diverge
	Agree         int     `json:"agree"`
	Diverge       int     `json:"diverge"`
	Skipped       int     `json:"skipped"`
	Errors        int     `json:"errors"`
	Fallbacks     int     `json:"fallbacks"`
	WorstResidual float64 `json:"worst_residual"`
	WorstPiDelta  float64 `json:"worst_pi_delta"`
}

type auditReport struct {
	Manifest     obs.Manifest          `json:"manifest"`
	EventLog     string                `json:"event_log,omitempty"`
	FlightDump   string                `json:"flight_dump,omitempty"`
	Events       *auditEvents          `json:"events,omitempty"`
	Flight       *auditFlight          `json:"flight,omitempty"`
	Paths        map[string]*auditPath `json:"paths,omitempty"`
	DivergeRate  float64               `json:"diverge_rate"`
	FallbackRate float64               `json:"fallback_rate"`
	Violations   []string              `json:"gate_violations,omitempty"`
}

func cmdAudit(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("audit", flag.ContinueOnError)
	fs.SetOutput(out)
	var cfg auditConfig
	fs.StringVar(&cfg.eventLog, "event-log", "", "replay this JSON-lines request-event stream (serve -event-log output)")
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
		Paths:      map[string]*auditPath{},
	}
	rep.Manifest.Command = "audit"

	if cfg.eventLog != "" {
		ev, err := auditEventLog(cfg.eventLog, &rep)
		if err != nil {
			return fmt.Errorf("audit: %w", err)
		}
		rep.Events = ev
	}
	if cfg.flight != "" {
		fl, err := auditFlightDump(cfg.flight, &rep)
		if err != nil {
			return fmt.Errorf("audit: %w", err)
		}
		rep.Flight = fl
	}
	finishPaths(rep.Paths)
	rep.DivergeRate, rep.FallbackRate = auditRates(&rep)
	rep.Violations = auditGates(cfg, &rep)
	rep.Manifest.WallSeconds = time.Since(start).Seconds()

	writeAuditSummary(out, &rep)
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

func (r *auditReport) pathFor(name string) *auditPath {
	if name == "" {
		name = "unknown"
	}
	p := r.Paths[name]
	if p == nil {
		p = &auditPath{}
		r.Paths[name] = p
	}
	return p
}

// auditEventLog streams the JSONL event log: solve events feed the
// per-path latency split, shadow events feed the divergence tally.
func auditEventLog(path string, rep *auditReport) (*auditEvents, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ev := &auditEvents{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(strings.TrimSpace(string(sc.Bytes()))) == 0 {
			continue
		}
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		ev.Total++
		switch e.Method {
		case "shadow":
			if strings.Contains(e.Error, "diverged") {
				ev.ShadowDiverged++
			} else {
				ev.ShadowErrors++
			}
		case "solve", "batch":
			ev.Solves++
			if e.Error != "" || e.Status >= 400 {
				ev.Errors++
			}
			if e.Cache == "hit" {
				ev.CacheHits++
			}
			if e.Path != "" {
				p := rep.pathFor(e.Path)
				p.Count++
				p.totalLatencySum += e.LatencySeconds
				if e.LatencySeconds > p.MaxLatency {
					p.MaxLatency = e.LatencySeconds
				}
			}
		}
	}
	return ev, sc.Err()
}

// auditFlightDump replays a /debug/flight JSON dump (or the bare
// {"flight": [...]} subset) into residual, fallback, and shadow-verdict
// tallies.
func auditFlightDump(path string, rep *auditReport) (*auditFlight, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Flight []shadow.FlightRecord `json:"flight"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	fl := &auditFlight{}
	for _, r := range doc.Flight {
		fl.Records++
		if r.Fallback != "" || strings.Contains(r.Path, "fallback") {
			fl.Fallbacks++
		}
		if r.Residual > fl.WorstResidual {
			fl.WorstResidual = r.Residual
		}
		// General-MRGP solves carry no solve path; bucket them by solver.
		label := r.Path
		if label == "" {
			label = r.Solver
		}
		p := rep.pathFor(label)
		p.Count++
		p.totalLatencySum += r.ElapsedSeconds
		if r.ElapsedSeconds > p.MaxLatency {
			p.MaxLatency = r.ElapsedSeconds
		}
		if r.Residual > p.WorstResidual {
			p.WorstResidual = r.Residual
		}
		if r.Shadow == nil {
			continue
		}
		switch r.Shadow.Verdict {
		case shadow.VerdictAgree:
			fl.Agree++
			p.ShadowAgree++
		case shadow.VerdictDiverge:
			fl.Diverge++
			p.ShadowDiverge++
			if r.Shadow.PiDelta > fl.WorstPiDelta {
				fl.WorstPiDelta = r.Shadow.PiDelta
			}
		case shadow.VerdictSkipped:
			fl.Skipped++
			p.ShadowSkipped++
		case shadow.VerdictError:
			fl.Errors++
			p.ShadowErrors++
		}
	}
	fl.Comparisons = fl.Agree + fl.Diverge
	return fl, nil
}

func finishPaths(paths map[string]*auditPath) {
	for _, p := range paths {
		if p.Count > 0 {
			p.MeanLatency = p.totalLatencySum / float64(p.Count)
		}
	}
}

// auditRates derives the gated ratios, preferring flight evidence (which
// counts every comparison) over the event log (which only records the
// divergences): diverge-per-comparison and fallback-per-solve.
func auditRates(rep *auditReport) (diverge, fallback float64) {
	switch {
	case rep.Flight != nil && rep.Flight.Comparisons > 0:
		diverge = float64(rep.Flight.Diverge) / float64(rep.Flight.Comparisons)
	case rep.Events != nil && rep.Events.Solves > 0:
		diverge = float64(rep.Events.ShadowDiverged) / float64(rep.Events.Solves)
	case rep.Events != nil && rep.Events.ShadowDiverged > 0:
		diverge = 1
	}
	if rep.Flight != nil && rep.Flight.Records > 0 {
		fallback = float64(rep.Flight.Fallbacks) / float64(rep.Flight.Records)
	} else {
		var solves, fb int
		for name, p := range rep.Paths {
			solves += p.Count
			if strings.Contains(name, "fallback") {
				fb += p.Count
			}
		}
		if solves > 0 {
			fallback = float64(fb) / float64(solves)
		}
	}
	return diverge, fallback
}

func auditGates(cfg auditConfig, rep *auditReport) []string {
	var v []string
	if cfg.maxDivergeRate >= 0 && rep.DivergeRate > cfg.maxDivergeRate {
		v = append(v, fmt.Sprintf("diverge rate %.4g > max %.4g", rep.DivergeRate, cfg.maxDivergeRate))
	}
	if cfg.maxResidual >= 0 && rep.Flight != nil && rep.Flight.WorstResidual > cfg.maxResidual {
		v = append(v, fmt.Sprintf("worst residual %.3g > max %.3g", rep.Flight.WorstResidual, cfg.maxResidual))
	}
	if cfg.maxFallbackRate >= 0 && rep.FallbackRate > cfg.maxFallbackRate {
		v = append(v, fmt.Sprintf("fallback rate %.4g > max %.4g", rep.FallbackRate, cfg.maxFallbackRate))
	}
	return v
}

func writeAuditSummary(out io.Writer, rep *auditReport) {
	if rep.Events != nil {
		fmt.Fprintf(out, "audit: events: %d total, %d solves (%d errors, %d cache hits), %d shadow divergences, %d shadow errors\n",
			rep.Events.Total, rep.Events.Solves, rep.Events.Errors, rep.Events.CacheHits,
			rep.Events.ShadowDiverged, rep.Events.ShadowErrors)
	}
	if rep.Flight != nil {
		fmt.Fprintf(out, "audit: flight: %d solves, %d shadow comparisons (%d agree, %d diverge, %d skipped, %d errors), %d fallbacks, worst residual %.3g\n",
			rep.Flight.Records, rep.Flight.Comparisons, rep.Flight.Agree, rep.Flight.Diverge,
			rep.Flight.Skipped, rep.Flight.Errors, rep.Flight.Fallbacks, rep.Flight.WorstResidual)
	}
	names := make([]string, 0, len(rep.Paths))
	for name := range rep.Paths {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := rep.Paths[name]
		fmt.Fprintf(out, "audit: path %-22s %5d solves  mean %.4fs  max %.4fs\n",
			name, p.Count, p.MeanLatency, p.MaxLatency)
	}
	fmt.Fprintf(out, "audit: diverge rate %.4g, fallback rate %.4g\n", rep.DivergeRate, rep.FallbackRate)
}
