// Command nvrel runs the reproduction experiments and solves the
// perception-system reliability models from the command line.
//
// Usage:
//
//	nvrel list
//	nvrel run <experiment>|all [-csv]
//	nvrel solve [-arch 4v|6v] [parameter flags]
//	nvrel simulate [-reps n] [-horizon seconds] [-seed s]
//
// Run "nvrel <command> -h" for the flags of each command.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"nvrel/internal/parallel"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nvrel:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	args, opts, err := applyGlobalFlags(args)
	if err != nil {
		return err
	}
	if opts.instrumented() {
		return withInstrumentation(opts, args, func() error { return dispatch(args, out) })
	}
	return dispatch(args, out)
}

func dispatch(args []string, out io.Writer) error {
	if len(args) == 0 {
		usage(out)
		return nil
	}
	switch args[0] {
	case "list":
		return cmdList(out)
	case "run":
		return cmdRun(args[1:], out)
	case "solve":
		return cmdSolve(args[1:], out)
	case "simulate":
		return cmdSimulate(args[1:], out)
	case "export":
		return cmdExport(args[1:], out)
	case "analyze":
		return cmdAnalyze(args[1:], out)
	case "sweep":
		return cmdSweep(args[1:], out)
	case "trace":
		return cmdTrace(args[1:], out)
	case "chaos":
		return cmdChaos(args[1:], out)
	case "serve":
		return cmdServe(args[1:], out)
	case "loadgen":
		return cmdLoadgen(args[1:], out)
	case "audit":
		return cmdAudit(args[1:], out)
	case "help", "-h", "--help":
		usage(out)
		return nil
	default:
		usage(out)
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func usage(out io.Writer) {
	fmt.Fprintln(out, `nvrel — N-version perception-system reliability (DSN 2023 reproduction)

commands:
  list                       list the runnable experiments
  run <experiment>|all       regenerate a paper table/figure (add -csv for CSV)
  solve                      solve one model with custom parameters
  simulate                   cross-validate the solvers with the event simulator
  export                     emit a model as Graphviz DOT (-arch 4v|6v)
  analyze                    solve a custom DSPN from a text definition (-net file)
  sweep                      sweep any parameter over a grid (-param -from -to -steps)
  trace                      print one simulated event timeline (-arch -horizon -seed)
  chaos                      run the sweeps under a fault-injection plan and
                             assert every fault is recovered or surfaced typed
  serve                      run the live-telemetry HTTP daemon (/metrics
                             Prometheus, /metrics.json, /traces, /events,
                             /healthz, /debug/flight, POST /solve,
                             POST /solve/batch)
  loadgen                    drive a serve daemon with a repeat/neighbor/cold
                             request mix and report latency percentiles, error
                             rate, and cache-hit rate (gates: -max-p99,
                             -max-error-rate, -min-hit-rate, -min-p50-speedup,
                             -slo-availability, -slo-p99)
  audit                      replay a run's event records (-event-log JSONL
                             and/or a /debug/flight dump; one schema) into a
                             report: divergence rate, worst residuals,
                             fallback frequency, per-path latency split; exits
                             non-zero on -max-diverge-rate / -max-residual /
                             -max-fallback-rate violations
  help                       show this message

global flags (before the command):
  -workers n                 worker goroutines for sweeps and replications
                             (default: NVREL_WORKERS or the CPU count)
  -metrics file.json         write a solver-metrics snapshot + run manifest
  -trace file.json           record solve spans and write Chrome trace-event
                             JSON at exit (open in Perfetto)
  -cpuprofile file           write a pprof CPU profile of the command
  -memprofile file           write a pprof heap profile at command exit
  -pprof addr                serve net/http/pprof on addr (e.g. localhost:6060)`)
}

// applyGlobalFlags consumes flags that precede the command name: -workers
// pins the worker count of the parallel engines, and the observability
// flags (-metrics, -cpuprofile, -memprofile, -pprof) select the plumbing
// withInstrumentation wraps around the command. Anything unrecognized is
// left for the subcommand.
func applyGlobalFlags(args []string) ([]string, globalOpts, error) {
	var opts globalOpts
	targets := map[string]*string{
		"metrics":    &opts.metricsPath,
		"trace":      &opts.tracePath,
		"cpuprofile": &opts.cpuProfile,
		"memprofile": &opts.memProfile,
		"pprof":      &opts.pprofAddr,
	}
	for len(args) > 0 {
		arg := args[0]
		if len(arg) < 2 || arg[0] != '-' {
			return args, opts, nil
		}
		name := strings.TrimLeft(arg, "-")
		value, hasValue := "", false
		if i := strings.Index(name, "="); i >= 0 {
			name, value, hasValue = name[:i], name[i+1:], true
		}
		dst, known := targets[name]
		if !known && name != "workers" {
			return args, opts, nil
		}
		if hasValue {
			args = args[1:]
		} else {
			if len(args) < 2 {
				return nil, opts, fmt.Errorf("-%s: missing value", name)
			}
			value, args = args[1], args[2:]
		}
		if name == "workers" {
			n, err := strconv.Atoi(value)
			if err != nil || n < 0 {
				return nil, opts, fmt.Errorf("-workers: want a non-negative integer, got %q", value)
			}
			parallel.SetWorkers(n)
			continue
		}
		if value == "" {
			return nil, opts, fmt.Errorf("-%s: missing value", name)
		}
		*dst = value
	}
	return args, opts, nil
}

func cmdList(out io.Writer) error {
	fmt.Fprintln(out, "experiments (see DESIGN.md section 5 for the paper mapping):")
	for _, n := range experimentNames() {
		fmt.Fprintf(out, "  %s\n", n)
	}
	return nil
}

func cmdRun(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	csv := fs.Bool("csv", false, "emit CSV instead of a text table (sweep experiments only)")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("run: want exactly one experiment name, got %d", fs.NArg())
	}
	name := fs.Arg(0)
	if name == "all" {
		for _, n := range experimentNames() {
			if err := runExperiment(n, *csv, out); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		return nil
	}
	return runExperiment(name, *csv, out)
}
