package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// row is one printed metric.
type row struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

// report collects what one run prints before its JSON line.
type report struct {
	workload string
	e2e      []row
	notes    []string
	layers   map[string]layerValue
	selfMS   map[string]float64
	man      map[string]any
	wrong    []string
	failFrac ratio
}

func (r *report) add(name string, value float64, unit string, n int, note string) {
	r.e2e = append(r.e2e, row{name, value, unit, n, note})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func errStrings(errs []error) []string {
	out := make([]string, len(errs))
	for i, e := range errs {
		out[i] = e.Error()
	}
	return out
}

// tail returns the q-percentile or, where the sample cannot support it,
// the highest lower one that it can, with the percentile it used.
func tail(xs []float64, qs ...float64) (float64, string) {
	q, v, err := highestTail(xs, qs...)
	if err != nil {
		return median(xs), "p50 (too few samples for a tail)"
	}
	return v, fmt.Sprintf("p%g", 100*q)
}

func (r *report) hot(cfg runConfig, h *hotRun) result {
	r.man = map[string]any{
		"offered_rate_rps":   hotRate,
		"latency_limit_ms":   float64(hotLimit) / 1e6,
		"hot_set":            hotSetSize,
		"hot_share":          hotShare,
		"prefilled_entries":  prefillTarget,
		"fixed_phase_s":      h.fixed.seconds,
		"probe_s":            probeDur.Seconds(),
		"search_step":        searchStep,
		"search_resolution":  searchRes,
		"p50_samples":        len(h.fixed.latMS),
		"p99_samples":        len(h.fixed.latMS),
		"daemon_setups":      len(h.setup),
		"probe_rates_rps":    probeRates(h.probes),
		"max_rps_probes":     len(h.probes),
		"generator_threads":  1,
		"answer_tolerance":   answerTol,
		"answers_checked":    h.answered,
		"fixed_phase_sent":   h.fixed.sent,
		"fixed_phase_failed": h.fixed.failed,
	}
	f := h.fixed
	e2e := map[string]float64{
		"setup_s":       median(h.setup),
		"cpu_ms_per_op": h.cpuMS,
		"rss_mb":        h.rssMB,
	}
	r.add("setup_s", e2e["setup_s"], "s", len(h.setup), "daemon exec -> first /readyz 200, median [json setup_s]")
	r.add("p50_ms", f.p50, "ms", len(f.latMS), fmt.Sprintf("at %.0f req/s offered, from due time (median of %d-request windows)", hotRate, latWindow))
	r.add("p99_ms", f.p99, "ms", len(f.latMS), fmt.Sprintf("at %.0f req/s offered, from due time (median of %d-request windows)", hotRate, latWindow))
	if !cfg.trace {
		r.add("max_rps", h.maxRPS, "req/s", len(h.probes), fmt.Sprintf("highest probed rate with p99 <= %v and no growing backlog", hotLimit))
	}
	r.add("cpu_ms_per_req", h.cpuMS, "ms", h.cpuN, "daemon user+sys CPU per answered request, median of 1 s windows of the fixed phase [json cpu_ms_per_op]")
	r.add("rss_mb", h.rssMB, "MiB", h.rssN, "daemon resident set, median over the fixed phase [json rss_mb]")
	hv, hq := tail(f.hitMS, 0.99, 0.9)
	mv, mq := tail(f.missMS, 0.99, 0.9)
	r.note("by cache status: hot-set p50 %.4f ms %s %.4f ms (n=%d); unique-miss p50 %.4f ms %s %.4f ms (n=%d)",
		median(f.hitMS), hq, hv, len(f.hitMS), median(f.missMS), mq, mv, len(f.missMS))
	r.note("open loop: generator lateness p50 %.4f ms p99 %.4f ms, backlog at schedule end %d (ok=%t)", f.late50, f.late99, f.backlog, f.backlogOK)
	for _, p := range h.probes {
		r.note("probe %8.0f req/s: sent %6d failed %d p50 %.4f ms p99 %.4f ms late p99 %.4f ms backlog %4d -> meets=%t",
			p.rate, p.sent, p.failed, p.p50, p.p99, p.late99, p.backlog, p.meets(hotLimit))
	}
	if h.fixedTr != nil {
		t := h.fixedTr
		r.note("tracing overhead: p50 %.4f -> %.4f ms (%+.4f), p99 %.4f -> %.4f ms (%+.4f)", f.p50, t.p50, t.p50-f.p50, f.p99, t.p99, t.p99-f.p99)
	}
	r.selfMS = h.selfMS
	return r.finish(cfg, h.answered, errStrings(h.wrong), e2e, h.layers)
}

func probeRates(ps []probeRun) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.rate
	}
	return out
}

func (r *report) cold(cfg runConfig, c *coldRun) result {
	tailV, tailQ := tail(c.single, 0.9, 0.75)
	r.man = map[string]any{
		"clients":          conns,
		"batch_every":      coldBatchEvery,
		"batch_size":       coldBatchSize,
		"phase_s":          c.seconds,
		"solve_samples":    len(c.single),
		"tail_percentile":  tailQ,
		"batch_samples":    len(c.batch),
		"points_answered":  c.points,
		"reference_checks": coldChecks,
		"answer_tolerance": answerTol,
		"daemon_setups":    len(c.setup),
	}
	e2e := map[string]float64{
		"setup_s":       median(c.setup),
		"cpu_ms_per_op": c.cpuMS,
		"rss_mb":        c.rssMB,
	}
	r.add("setup_s", e2e["setup_s"], "s", len(c.setup), "daemon exec -> first /readyz 200, median [json setup_s]")
	r.add("p50_ms", median(c.single), "ms", len(c.single), "/solve round trip")
	r.add("p90_ms", tailV, "ms", len(c.single), "/solve round trip, "+tailQ)
	r.add("solves_per_s", float64(c.points)/c.seconds, "points/s", c.points, "single + batch points answered per second")
	r.add("batch_p50_ms", median(c.batch), "ms", len(c.batch), "/solve/batch round trip")
	r.add("cpu_ms_per_req", c.cpuMS, "ms", c.cpuN, fmt.Sprintf("daemon user+sys CPU per answered point, median of %v windows [json cpu_ms_per_op]", coldWindow))
	sparse := c.work["mrgp.solve.routed_sparse"]
	r.note("solver work: %s power cycles per sparse solve, %s uniformization terms per sparse solve",
		ratio{c.work["mrgp.power.cycles"], sparse}, ratio{c.work["linalg.unif.terms"], sparse})
	r.add("rss_mb", c.rssMB, "MiB", c.rssN, "daemon resident set, median over the phase [json rss_mb]")
	if c.traced != nil {
		var ts []float64
		for i := range c.traced.ex {
			if len(c.traced.ex[i].item.pts) == 1 {
				ts = append(ts, c.traced.ex[i].ms())
			}
		}
		r.note("tracing overhead: /solve p50 %.3f -> %.3f ms (%+.3f, %d -> %d samples)", median(c.single), median(ts), median(ts)-median(c.single), len(c.single), len(ts))
	}
	r.selfMS = c.selfMS
	return r.finish(cfg, c.answered, errStrings(c.wrong), e2e, c.layers)
}

func (r *report) runAll(cfg runConfig, a *runAllRun) result {
	rep := a.rep
	var walls, slowest, exps []float64
	var analytic, simulation float64
	untraced := 0
	perExp := map[string]float64{}
	for _, p := range rep.Passes {
		if p.Traced {
			for _, e := range p.Experiments {
				perExp[e.Name] = e.Seconds
			}
			continue
		}
		untraced++
		walls = append(walls, p.WallSeconds)
		top := 0.0
		for _, e := range p.Experiments {
			exps = append(exps, e.Seconds*1e3)
			top = max(top, e.Seconds*1e3)
			if simulationExperiments[e.Name] {
				simulation += e.Seconds
			} else {
				analytic += e.Seconds
			}
		}
		slowest = append(slowest, top)
	}
	nExp := len(exps)
	var wallSum float64
	for _, w := range walls {
		wallSum += w
	}
	r.man = map[string]any{
		"workers":          rep.Workers,
		"passes":           len(rep.Passes),
		"untraced_passes":  untraced,
		"experiments":      nExp,
		"headline":         rep.Headline,
		"golden_tolerance": goldenTol,
		"child_setups":     len(a.setup),
	}
	e2e := map[string]float64{
		"setup_s":       median(a.setup),
		"cpu_ms_per_op": rep.CPUSec * 1e3 / float64(len(rep.Passes)*len(rep.Passes[0].Experiments)),
		"rss_mb":        rep.RSSMB,
	}
	r.add("setup_s", e2e["setup_s"], "s", len(a.setup), "run-all subprocess exec -> ready, median [json setup_s]")
	r.add("wall_s", median(walls), "s", len(walls), "every experiment, in ExperimentNames order, median over passes")
	r.add("analytic_s", analytic/float64(untraced), "s", untraced, "non-simulation experiments, per pass")
	r.add("simulation_s", simulation/float64(untraced), "s", untraced, "outage+simcheck+voting+hetero+protocol, per pass")
	r.add("experiment_p50_ms", median(exps), "ms", nExp, "median experiment")
	r.add("slowest_experiment_ms", median(slowest), "ms", untraced, "slowest experiment of a pass, median")
	r.add("experiments_per_s", float64(nExp)/wallSum, "1/s", nExp, "")
	r.add("cpu_ms_per_experiment", e2e["cpu_ms_per_op"], "ms", nExp, "subprocess user+sys CPU [json cpu_ms_per_op]")
	r.add("rss_mb", rep.RSSMB, "MiB", rep.RSSSamples, "subprocess resident set, median over the passes [json rss_mb]")
	layers := map[string]layerValue{}
	if cfg.trace && len(rep.Passes) == 2 {
		counterLayers(layers, rep.Before, rep.After)
		sim := 0.0
		for name, s := range perExp {
			layers["experiments."+name+"_s"] = layerValue{value: s, unit: "s", n: 1}
			if simulationExperiments[name] {
				sim += s
			}
		}
		ev := float64(counterDelta(rep.Before, rep.After, "des.events"))
		layers["des.events_per_s"] = layerValue{value: ratio{ev, sim}.value(), unit: "1/s", base: fmt.Sprintf("%.0f events / %.3f simulation s", ev, sim)}
		w0, w1 := rep.Passes[0].WallSeconds, rep.Passes[1].WallSeconds
		r.note("tracing overhead: pass wall %.3f s untraced -> %.3f s with obs on (%+.1f%%)", w0, w1, 100*(w1-w0)/w0)
	}
	attempted := len(rep.Passes) * (len(rep.Passes[0].Experiments) + 1) // + the headline golden check
	return r.finish(cfg, attempted, rep.Errors, e2e, layers)
}

// print writes the human-readable report.
func (r *report) print(w io.Writer) {
	mode := "end-to-end (untraced)"
	if r.layers != nil {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "perfbench %s: %s\n", r.workload, mode)
	man, _ := json.Marshal(r.man)
	fmt.Fprintf(w, "manifest %s\n", man)
	for _, e := range r.e2e {
		fmt.Fprintf(w, "e2e   %-22s %14.6g %-8s n=%-7d %s\n", e.name, e.value, e.unit, e.n, e.note)
	}
	fmt.Fprintf(w, "e2e   %-22s %14.6g %-8s n=%-7.0f failed / attempted: %s\n", "fail_frac", r.failFrac.value(), "ratio", r.failFrac.den, r.failFrac)
	for _, n := range r.notes {
		fmt.Fprintln(w, "note  "+n)
	}
	for i, e := range r.wrong {
		if i == 10 {
			fmt.Fprintf(w, "WRONG ... and %d more\n", len(r.wrong)-10)
			break
		}
		fmt.Fprintln(w, "WRONG "+e)
	}
	if r.layers == nil {
		return
	}
	for _, lm := range layerTable {
		lv, ok := r.layers[lm.name]
		val := "n/a (not measured on this workload)"
		if ok {
			val = fmt.Sprintf("%.6g %s", lv.value, lv.unit)
			if lv.n > 0 {
				val += fmt.Sprintf(" n=%d", lv.n)
			}
			if lv.base != "" {
				val += " [" + lv.base + "]"
			}
		}
		fmt.Fprintf(w, "layer %-30s %-48s module=%s moves=%s\n", lm.name, val, lm.layer, lm.moves)
	}
	var exps []string
	for name := range r.layers {
		if strings.HasPrefix(name, "experiments.") {
			exps = append(exps, name)
		}
	}
	sort.Strings(exps)
	for _, name := range exps {
		fmt.Fprintf(w, "layer %-30s %.6g s module=experiments moves=analytic_s / simulation_s, wall_s @ run-all\n", name, r.layers[name].value)
	}
	var names []string
	for name := range r.selfMS {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return r.selfMS[names[i]] > r.selfMS[names[j]] })
	for _, name := range names {
		fmt.Fprintf(w, "self  %-42s %12.3f ms (replay self time)\n", name, r.selfMS[name])
	}
}
