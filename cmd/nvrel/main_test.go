package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"nvrel"
	"nvrel/internal/des"
	"nvrel/internal/linalg"
)

// capture runs the CLI against an in-memory buffer and returns what was
// written — the commands take any io.Writer, so tests never touch disk.
func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	runErr := run(args, &buf)
	return buf.String(), runErr
}

func TestCmdNoArgsShowsUsage(t *testing.T) {
	out, err := capture(t)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "commands:") {
		t.Errorf("usage missing: %q", out)
	}
}

func TestCmdHelp(t *testing.T) {
	out, err := capture(t, "help")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "analyze") {
		t.Errorf("help missing analyze: %q", out)
	}
}

func TestCmdUnknown(t *testing.T) {
	if _, err := capture(t, "frobnicate"); err == nil {
		t.Error("unknown command accepted")
	}
}

// TestCmdBenchOnlyValidation: the bench harness is gone (timings come from
// perfbench and `go test -bench`), so a script still calling it with its
// old flags must fail loudly as an unknown command, not run something else.
func TestCmdBenchOnlyValidation(t *testing.T) {
	_, err := capture(t, "bench", "-reps", "1", "-only", "nope")
	if err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Errorf("bench -only nope: err = %v, want unknown command", err)
	}
}

func TestCmdList(t *testing.T) {
	out, err := capture(t, "list")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"headline", "fig3", "fig4d", "ablations", "protocol"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q:\n%s", want, out)
		}
	}
}

func TestCmdRunHeadline(t *testing.T) {
	out, err := capture(t, "run", "headline")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "0.8233477") || !strings.Contains(out, "improvement") {
		t.Errorf("headline output wrong:\n%s", out)
	}
}

func TestCmdRunCSV(t *testing.T) {
	out, err := capture(t, "run", "-csv", "fig4d")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "p',four_version,six_version") {
		t.Errorf("csv header wrong: %q", strings.SplitN(out, "\n", 2)[0])
	}
}

func TestCmdRunParams(t *testing.T) {
	out, err := capture(t, "run", "params")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1523") {
		t.Errorf("params output wrong:\n%s", out)
	}
}

func TestCmdRunValidation(t *testing.T) {
	if _, err := capture(t, "run"); err == nil {
		t.Error("run without experiment accepted")
	}
	if _, err := capture(t, "run", "nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestCmdSolveFourVersion(t *testing.T) {
	out, err := capture(t, "solve", "-arch", "4v", "-states")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "E[R_sys] = 0.8223") {
		t.Errorf("solve output wrong:\n%s", out)
	}
	if !strings.Contains(out, "probability") {
		t.Errorf("states table missing:\n%s", out)
	}
}

func TestCmdSolveCustomInterval(t *testing.T) {
	out, err := capture(t, "solve", "-arch", "6v", "-interval", "450")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "E[R_sys] = 0.9434") {
		t.Errorf("solve at 450 s wrong:\n%s", out)
	}
}

func TestCmdSolveUnknownArch(t *testing.T) {
	if _, err := capture(t, "solve", "-arch", "5v"); err == nil {
		t.Error("unknown architecture accepted")
	}
}

func TestCmdExport(t *testing.T) {
	out, err := capture(t, "export", "-arch", "4v")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "Pmh") {
		t.Errorf("export output wrong:\n%s", out)
	}
	if _, err := capture(t, "export", "-arch", "9v"); err == nil {
		t.Error("unknown architecture accepted")
	}
}

func TestCmdAnalyze(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "toy.net")
	src := `net toy
place up 1
place down

transition fail exponential rate=1 in=up out=down
transition repair exponential rate=3 in=down out=up
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, "analyze", "-net", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CTMC (GTH)") {
		t.Errorf("solver line missing:\n%s", out)
	}
	if !strings.Contains(out, "0.75") {
		t.Errorf("steady state missing (P(up) = 0.75):\n%s", out)
	}
	if !strings.Contains(out, "up + down") {
		t.Errorf("invariant missing:\n%s", out)
	}
}

func TestCmdAnalyzeDot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "toy.net")
	src := "net toy\nplace p 1\ntransition t exponential rate=1 in=p out=p\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, "analyze", "-net", path, "-dot")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "digraph \"toy\"") {
		t.Errorf("dot output wrong:\n%s", out)
	}
}

func TestCmdAnalyzeErrors(t *testing.T) {
	if _, err := capture(t, "analyze"); err == nil {
		t.Error("missing -net accepted")
	}
	if _, err := capture(t, "analyze", "-net", "/nonexistent/file.net"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCmdSimulateSmall(t *testing.T) {
	out, err := capture(t, "simulate", "-reps", "2", "-horizon", "200000")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "four-version") || !strings.Contains(out, "six-version") {
		t.Errorf("simulate output wrong:\n%s", out)
	}
}

// TestCmdSimulateRejectsBadRunLength: a replication count below one or a
// horizon that is not finite and positive is an error naming the value,
// never a silent run at the defaults.
func TestCmdSimulateRejectsBadRunLength(t *testing.T) {
	for _, c := range []struct{ flag, value, want string }{
		{"-reps", "0", "replications = 0"},
		{"-reps", "-3", "replications = -3"},
		{"-horizon", "-5", "horizon = -5"},
		{"-horizon", "0", "horizon = 0"},
		{"-horizon", "NaN", "horizon = NaN"},
		{"-horizon", "+Inf", "horizon = +Inf"},
	} {
		out, err := capture(t, "simulate", c.flag, c.value)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("simulate %s %s: err = %v, want one naming %q", c.flag, c.value, err, c.want)
		}
		if strings.Contains(out, "four-version") {
			t.Errorf("simulate %s %s ran:\n%s", c.flag, c.value, out)
		}
	}
}

func TestPaperNetFile(t *testing.T) {
	// The checked-in sample net must stay parseable and solvable.
	out, err := capture(t, "analyze", "-net", "../../testdata/rejuvenation-toy.net")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Markov-regenerative (clock-synchronous)") {
		t.Errorf("sample net solver wrong:\n%s", out)
	}
	if !strings.Contains(out, "0.826") {
		t.Errorf("sample net steady state wrong:\n%s", out)
	}
}

func TestCmdSweep(t *testing.T) {
	out, err := capture(t, "sweep", "-param", "interval", "-from", "300", "-to", "900", "-steps", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "interval") || !strings.Contains(out, "600") {
		t.Errorf("sweep output wrong:\n%s", out)
	}
	// interval is rejuvenation-only: the 4v column shows a dash.
	if !strings.Contains(out, "-") {
		t.Errorf("rejuvenation-only sweep should dash the 4v column:\n%s", out)
	}
}

func TestCmdSweepCSV(t *testing.T) {
	out, err := capture(t, "sweep", "-param", "p", "-from", "0.02", "-to", "0.1", "-steps", "2", "-csv")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "p,four_version,six_version") {
		t.Errorf("csv output wrong:\n%s", out)
	}
}

// TestCmdSweepWorkspaceMatchesNil: sweep solves each grid point on an
// arena workspace; its table must be byte-identical to one printed from
// nil-workspace solves, and one reused workspace must give the nil bits
// on every route (CTMC, dense and sparse MRGP).
func TestCmdSweepWorkspaceMatchesNil(t *testing.T) {
	out, err := capture(t, "sweep", "-param", "mttc", "-from", "1000", "-to", "2000", "-steps", "3", "-csv")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cache := nvrel.NewModelCache()
	ws := linalg.NewWorkspace()
	want := "mttc,four_version,six_version\n"
	for _, v := range []float64{1000, 1500, 2000} {
		p4, p6, p10 := nvrel.DefaultFourVersion(), nvrel.DefaultSixVersion(), nvrel.DefaultSixVersion()
		p4.MeanTimeToCompromise, p6.MeanTimeToCompromise, p10.MeanTimeToCompromise, p10.N = v, v, v, 10
		m4, _ := cache.BuildNoRejuvenation(p4)
		m6, _ := cache.BuildWithRejuvenation(p6)
		m10, _ := cache.BuildWithRejuvenation(p10)
		var rel [3]float64
		for k, m := range []*nvrel.Model{m4, m6, m10} {
			arch := [3]string{"4v", "6v", "6v"}[k]
			nilRel, err := solveShadowed(ctx, "test", arch, m, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			wsRel, err := solveShadowed(ctx, "test", arch, m, ws, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(wsRel) != math.Float64bits(nilRel) {
				t.Errorf("mttc=%g model %d: workspace solve %x, nil-workspace solve %x", v, k, math.Float64bits(wsRel), math.Float64bits(nilRel))
			}
			rel[k] = nilRel
		}
		want += fmt.Sprintf("%.6g,%.7f,%.7f\n", v, rel[0], rel[1])
	}
	if out != want {
		t.Errorf("sweep table differs from nil-workspace solves:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

// TestCmdSweepKeepGoing: with -keep-going a sweep whose grid strays into
// invalid territory reports each bad point on its own row, still prints
// the good points, and exits non-zero — one bad point no longer hides the
// rest of the grid.
func TestCmdSweepKeepGoing(t *testing.T) {
	out, err := capture(t, "sweep", "-param", "mttc", "-from", "-100", "-to", "100", "-steps", "3", "-keep-going")
	if err == nil || !strings.Contains(err.Error(), "2 of 3 points failed") {
		t.Fatalf("per-point failures not summarized: %v", err)
	}
	if strings.Count(out, "error:") != 2 {
		t.Errorf("want two per-point error rows:\n%s", out)
	}
	if !strings.Contains(out, "0.7534184") {
		t.Errorf("surviving point missing:\n%s", out)
	}
	// Without -keep-going the first invalid point aborts the whole sweep.
	if _, err := capture(t, "sweep", "-param", "mttc", "-from", "-100", "-to", "100", "-steps", "3"); err == nil {
		t.Error("invalid point accepted without -keep-going")
	}
}

func TestCmdSweepValidation(t *testing.T) {
	if _, err := capture(t, "sweep", "-param", "bogus", "-from", "1", "-to", "2"); err == nil {
		t.Error("unknown parameter accepted")
	}
	if _, err := capture(t, "sweep", "-param", "p", "-from", "2", "-to", "1"); err == nil {
		t.Error("reversed range accepted")
	}
	if _, err := capture(t, "sweep", "-param", "p", "-from", "0.01", "-to", "0.1", "-steps", "1"); err == nil {
		t.Error("single step accepted")
	}
}

func TestCmdAnalyzeReward(t *testing.T) {
	out, err := capture(t, "analyze", "-net", "../../testdata/rejuvenation-toy.net", "-reward", "#fresh")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `expected reward "#fresh" = 0.826`) {
		t.Errorf("reward output wrong:\n%s", out)
	}
	if _, err := capture(t, "analyze", "-net", "../../testdata/rejuvenation-toy.net", "-reward", "#nope"); err == nil {
		t.Error("unknown reward place accepted")
	}
}

func TestCmdTrace(t *testing.T) {
	out, err := capture(t, "trace", "-arch", "6v", "-horizon", "2000", "-seed", "1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"event timeline", "rejuvenation clock tick", "analytic-reward"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdTraceAttacker(t *testing.T) {
	out, err := capture(t, "trace", "-arch", "4v", "-horizon", "20000", "-seed", "3", "-attack-duty", "0.2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "attack campaign") {
		t.Errorf("attacker trace missing campaign events:\n%s", out)
	}
}

func TestCmdTraceValidation(t *testing.T) {
	if _, err := capture(t, "trace", "-arch", "7v"); err == nil {
		t.Error("unknown architecture accepted")
	}
}

// TestCmdTraceNonFiniteHorizon: a NaN or infinite horizon used to run
// forever; it must now fail at once with the typed error, before the
// timeline starts.
func TestCmdTraceNonFiniteHorizon(t *testing.T) {
	for _, h := range []string{"NaN", "+Inf", "Inf", "-Inf"} {
		type result struct {
			out string
			err error
		}
		done := make(chan result, 1)
		go func() {
			out, err := capture(t, "trace", "-horizon", h)
			done <- result{out, err}
		}()
		select {
		case r := <-done:
			var nf *des.NonFiniteError
			if !errors.As(r.err, &nf) || nf.Name != "horizon" {
				t.Errorf("trace -horizon %s: err = %v, want a *des.NonFiniteError for the horizon", h, r.err)
			}
			if strings.Contains(r.out, "event timeline") {
				t.Errorf("trace -horizon %s started a timeline:\n%s", h, r.out)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("trace -horizon %s did not return", h)
		}
	}
}

// traceTimestamps extracts the leading timestamps of the timeline lines
// ("  <time>  <event>").
func traceTimestamps(t *testing.T, out string) []float64 {
	t.Helper()
	var stamps []float64
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "  ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		stamps = append(stamps, v)
	}
	return stamps
}

func TestCmdTraceTimelineOrdered(t *testing.T) {
	out, err := capture(t, "trace", "-arch", "6v", "-horizon", "4000", "-seed", "7")
	if err != nil {
		t.Fatal(err)
	}
	stamps := traceTimestamps(t, out)
	if len(stamps) < 5 {
		t.Fatalf("timeline too short (%d events):\n%s", len(stamps), out)
	}
	for i := 1; i < len(stamps); i++ {
		if stamps[i] < stamps[i-1] {
			t.Fatalf("timeline out of order at event %d: %.1f after %.1f", i, stamps[i], stamps[i-1])
		}
	}
}

func TestCmdTraceAttackDutyHonored(t *testing.T) {
	// With a positive duty cycle the bursty attacker emits campaign
	// events; at the default duty of zero the constant-rate model runs and
	// no campaign events may appear.
	with, err := capture(t, "trace", "-arch", "4v", "-horizon", "20000", "-seed", "3", "-attack-duty", "0.2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(with, "attack campaign") {
		t.Errorf("duty 0.2 missing campaign events:\n%s", with)
	}
	without, err := capture(t, "trace", "-arch", "4v", "-horizon", "20000", "-seed", "3")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(without, "attack campaign") {
		t.Errorf("duty 0 produced campaign events:\n%s", without)
	}
}

func TestDeferredRestoreNetFile(t *testing.T) {
	out, err := capture(t, "analyze", "-net", "../../testdata/deferred-restore.net", "-reward", "#up")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Markov-regenerative (general)") {
		t.Errorf("expected the general solver:\n%s", out)
	}
	// P(up) = (1/0.2) / (1/0.2 + 2) = 5/7.
	if !strings.Contains(out, "0.71428571") {
		t.Errorf("steady state wrong:\n%s", out)
	}
}

func TestCmdAnalyzeBoundedness(t *testing.T) {
	out, err := capture(t, "analyze", "-net", "../../testdata/deferred-restore.net")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "structural boundedness: certified") {
		t.Errorf("boundedness line missing:\n%s", out)
	}
}
