package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nvrel"
	"nvrel/internal/obs"
)

// Golden headline values (internal/nvp/model_test.go) and their band.
const (
	golden4v  = 0.8223487
	golden6v  = 0.94064835
	goldenTol = 5e-7
)

// simulationExperiments are the experiments that run the event-level
// simulators (percept/des/bftvote); the rest are analytic.
var simulationExperiments = map[string]bool{
	"outage": true, "simcheck": true, "voting": true, "hetero": true, "protocol": true,
}

// expTiming is one experiment's wall time within a pass.
type expTiming struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// passResult is one pass over every experiment.
type passResult struct {
	Traced      bool        `json:"traced"`
	WallSeconds float64     `json:"wall_seconds"`
	Experiments []expTiming `json:"experiments"`
}

// childReport is what the run-all subprocess prints as its last line.
type childReport struct {
	Passes     []passResult     `json:"passes"`
	Errors     []string         `json:"errors"`
	CPUSec     float64          `json:"cpu_seconds"`
	RSSMB      float64          `json:"rss_mb"` // median resident set over the passes
	RSSSamples int              `json:"rss_samples"`
	Workers    int              `json:"workers"`
	Before     map[string]int64 `json:"counters_before,omitempty"`
	After      map[string]int64 `json:"counters_after,omitempty"`
	Headline   [2]float64       `json:"headline"`
}

var headlineRe = regexp.MustCompile(`(four|six)-version \([a-z ]+\)\s+([0-9.]+)`)

// parseHeadline reads E[R_4v] and E[R_6v] from the headline report.
func parseHeadline(out string) ([2]float64, error) {
	var v [2]float64
	found := 0
	for _, m := range headlineRe.FindAllStringSubmatch(out, -1) {
		x, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return v, err
		}
		if m[1] == "four" {
			v[0] = x
		} else {
			v[1] = x
		}
		found++
	}
	if found != 2 {
		return v, fmt.Errorf("headline output has %d of 2 reliability rows", found)
	}
	return v, nil
}

func checkHeadline(v [2]float64) error {
	if math.Abs(v[0]-golden4v) > goldenTol || math.Abs(v[1]-golden6v) > goldenTol {
		return fmt.Errorf("headline E[R_4v]=%.8f E[R_6v]=%.8f, golden %.7f / %.8f", v[0], v[1], golden4v, golden6v)
	}
	return nil
}

// runPass runs every experiment once, in ExperimentNames order, writing
// reports to a discard writer except the headline's, which is checked.
func runPass(rep *childReport, traced bool) {
	pr := passResult{Traced: traced}
	t0 := time.Now()
	for _, name := range nvrel.ExperimentNames() {
		var w io.Writer = io.Discard
		var buf bytes.Buffer
		if name == "headline" {
			w = &buf
		}
		e0 := time.Now()
		err := nvrel.RunExperiment(name, w)
		pr.Experiments = append(pr.Experiments, expTiming{name, time.Since(e0).Seconds()})
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", name, err))
		}
		if name == "headline" && err == nil {
			v, err := parseHeadline(buf.String())
			if err == nil {
				err = checkHeadline(v)
			}
			if err != nil {
				rep.Errors = append(rep.Errors, err.Error())
			}
			rep.Headline = v
		}
	}
	pr.WallSeconds = time.Since(t0).Seconds()
	rep.Passes = append(rep.Passes, pr)
}

// childRunAll is the run-all subprocess: it reports "ready", waits for
// "go" (or "quit") on stdin, runs passes and prints a childReport. An
// untraced child runs passes while the next one is expected to fit in
// the budget; a traced child runs one untraced and one obs-enabled pass,
// so their difference is the tracing overhead.
func childRunAll(seconds float64, traced bool) error {
	fmt.Println("ready")
	line, _ := bufio.NewReader(os.Stdin).ReadString('\n')
	if strings.TrimSpace(line) != "go" {
		return nil
	}
	rep := childReport{Workers: nvrel.Workers()}
	proc := sampleProc(os.Getpid())
	t0 := time.Now()
	runPass(&rep, false)
	if traced {
		obs.Enable()
		rep.Before = obs.Capture().Counters
		runPass(&rep, true)
		rep.After = obs.Capture().Counters
	} else {
		for last := rep.Passes[0].WallSeconds; time.Since(t0).Seconds()+last <= seconds; {
			runPass(&rep, false)
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return err
	}
	rep.CPUSec = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	xs := proc.finish()
	rep.RSSMB, rep.RSSSamples = medianRSS(xs), len(xs)
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// child is one run-all subprocess, started and waiting for "go".
type child struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	setup time.Duration // exec → "ready"
}

func startChild(seconds float64, traced bool) (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "--child-runall", "--seconds", fmt.Sprint(seconds), "--trace", trace)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, in: in, out: bufio.NewReader(outPipe)}
	line, err := c.out.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "ready" {
		in.Close()
		cmd.Wait()
		return nil, fmt.Errorf("run-all child did not report ready (%q): %v", line, err)
	}
	c.setup = time.Since(t0)
	return c, nil
}

// finish sends cmd ("go" or "quit"), reads the child's last output line
// and waits for it to exit.
func (c *child) finish(cmd string) (string, error) {
	fmt.Fprintln(c.in, cmd)
	c.in.Close()
	var last string
	for {
		line, err := c.out.ReadString('\n')
		if strings.TrimSpace(line) != "" {
			last = line
		}
		if err != nil {
			break
		}
	}
	if err := c.cmd.Wait(); err != nil {
		return last, fmt.Errorf("run-all child: %w", err)
	}
	return last, nil
}

// runAllRun is everything run-all measured.
type runAllRun struct {
	setup []float64
	rep   childReport
}

func runAll(cfg runConfig) (*runAllRun, error) {
	run := &runAllRun{}
	for i := 0; i < daemonStarts; i++ {
		c, err := startChild(cfg.seconds, cfg.trace)
		if err != nil {
			return nil, err
		}
		run.setup = append(run.setup, c.setup.Seconds())
		if i < daemonStarts-1 {
			if _, err := c.finish("quit"); err != nil {
				return nil, err
			}
			continue
		}
		last, err := c.finish("go")
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal([]byte(last), &run.rep); err != nil {
			return nil, fmt.Errorf("run-all child report: %w", err)
		}
	}
	return run, nil
}
