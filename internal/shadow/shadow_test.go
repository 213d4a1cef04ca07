package shadow

import (
	"context"
	"testing"
	"time"

	"nvrel/internal/faultinject"
	"nvrel/internal/linalg"
	"nvrel/internal/nvp"
	"nvrel/internal/obs"
	"nvrel/internal/petri"
)

// solvePrimary builds and solves a 4v model large enough for the sparse
// GS path (N=24 -> 325 states >= linalg.SparseThreshold), returning a
// ready-to-offer job.
func solvePrimary(t *testing.T, n int) (Job, *nvp.Model) {
	t.Helper()
	p := nvp.DefaultFourVersion()
	p.N = n
	model, err := nvp.BuildNoRejuvenation(p)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	ws := linalg.NewWorkspace()
	pi, diag, err := model.SolveWith(context.Background(), ws, nvp.Opts{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	rel, err := model.ExpectedPaperReliabilityFrom(pi)
	if err != nil {
		t.Fatalf("reward: %v", err)
	}
	cp := make([]float64, len(pi))
	copy(cp, pi)
	return Job{Arch: "4v", Params: p, KeyHash: "testkey", Pi: cp, Rel: rel, Diag: diag}, model
}

func newTestVerifier(t *testing.T, cfg Config) *Verifier {
	t.Helper()
	if cfg.Rate == 0 {
		cfg.Rate = 1
	}
	v := New(cfg)
	t.Cleanup(v.Close)
	return v
}

func TestShadowAgreesOnCleanSolve(t *testing.T) {
	obs.Enable()
	t.Cleanup(func() { obs.Disable() })
	job, _ := solvePrimary(t, 24)
	if job.Diag.Path != petri.PathSparse {
		t.Fatalf("want sparse primary path, got %v", job.Diag.Path)
	}
	v := newTestVerifier(t, Config{})
	if !v.Offer(job) {
		t.Fatal("job not enqueued at rate 1")
	}
	v.Flush()
	st := v.Stats()
	if st.Sampled != 1 || st.Agree != 1 || st.Diverge != 0 || st.Errors != 0 {
		t.Fatalf("want 1 sampled / 1 agree, got %+v", st)
	}
	if obs.CounterFor("shadow.agree").Value() == 0 {
		t.Fatal("shadow.agree counter not incremented")
	}
	if !v.Healthy() {
		t.Fatal("verifier unhealthy after clean agreement")
	}
}

// TestShadowDetectsGSDrift is the acceptance test of the layer: a
// converged-but-wrong GS iterate (simplex-preserving 1e-4 mass
// transfer, invisible to every distribution guard) must be flagged by
// the independent GTH re-solve.
func TestShadowDetectsGSDrift(t *testing.T) {
	obs.EventsEnable()
	obs.EventsReset()
	t.Cleanup(obs.EventsReset)

	faultinject.Enable()
	t.Cleanup(func() {
		faultinject.Disable()
		faultinject.Reset()
	})
	if err := faultinject.Arm(faultinject.Fault{Site: "linalg.gs.drift", Count: 1}, 1); err != nil {
		t.Fatalf("arm: %v", err)
	}
	job, _ := solvePrimary(t, 24) // primary GS solve drifts once
	faultinject.Disable()         // shadow solves run clean

	v := newTestVerifier(t, Config{})
	v.Offer(job)
	v.Flush()
	st := v.Stats()
	if st.Diverge != 1 {
		t.Fatalf("drifted solve not detected: %+v", st)
	}
	if v.Healthy() {
		t.Fatal("verifier still healthy after divergence")
	}

	evs := obs.EventsSnapshot()
	if len(evs) != 1 || evs[0].Method != "shadow" {
		t.Fatalf("want exactly one shadow verdict record, got %+v", evs)
	}
	if ev := evs[0]; ev.Key != job.KeyHash || ev.Verdict != VerdictDiverge || ev.Rung != "gth" || ev.PiDelta <= DefaultPiTol {
		t.Fatalf("bad verdict record %+v", ev)
	}
}

func TestShadowSkipsExhaustedChain(t *testing.T) {
	job, _ := solvePrimary(t, 24)
	job.Diag.Path = petri.PathSparseFallbackPower // whole chain consumed
	v := newTestVerifier(t, Config{})
	v.Offer(job)
	v.Flush()
	if st := v.Stats(); st.Skipped != 1 || st.Agree != 0 || st.Diverge != 0 {
		t.Fatalf("want 1 skipped, got %+v", st)
	}
}

func TestShadowSamplingDeterministic(t *testing.T) {
	v := newTestVerifier(t, Config{Rate: 0.5})
	keys := []string{"a1b2", "c3d4", "e5f6", "0719", "deadbeef", "cafe", "f00d", "1234"}
	first := make([]bool, len(keys))
	anyTrue, anyFalse := false, false
	for i, k := range keys {
		first[i] = v.Sampled(k)
		if first[i] {
			anyTrue = true
		} else {
			anyFalse = true
		}
	}
	for i, k := range keys {
		if v.Sampled(k) != first[i] {
			t.Fatalf("sampling of %q not deterministic", k)
		}
	}
	if !anyTrue || !anyFalse {
		t.Fatalf("rate 0.5 over %d keys selected all-or-none: %v", len(keys), first)
	}
	z := newTestVerifier(t, Config{Rate: -1}) // explicit zero-rate
	z.cfg.Rate = 0
	if z.Sampled("a1b2") {
		t.Fatal("rate 0 sampled a key")
	}
}

func TestShadowQueueOverflowSkips(t *testing.T) {
	prev := obs.EventsEnable()
	obs.EventsReset()
	t.Cleanup(func() {
		obs.SetEventsEnabled(prev)
		obs.EventsReset()
	})
	job, _ := solvePrimary(t, 24)
	// Workers can't drain: close over a blocked verifier by filling the
	// queue faster than one worker solves. Use a tiny queue and many
	// offers; at least one must be shed, none may block.
	v := newTestVerifier(t, Config{Queue: 1, Workers: 1})
	done := make(chan struct{})
	go func() {
		for i := 0; i < 32; i++ {
			v.Offer(job)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Offer blocked")
	}
	v.Flush()
	st := v.Stats()
	if st.Sampled != 32 || st.Agree+st.Diverge+st.Skipped+st.Errors != 32 {
		t.Fatalf("outcome counts don't partition sampled: %+v", st)
	}
	// Shed jobs included, each sampled job leaves one verdict record.
	verdicts := map[string]int64{}
	for _, ev := range obs.EventsSnapshot() {
		if ev.Method != "shadow" || ev.Key != job.KeyHash {
			t.Fatalf("unexpected record %+v", ev)
		}
		verdicts[ev.Verdict]++
	}
	if verdicts[VerdictAgree] != st.Agree || verdicts[VerdictSkipped] != st.Skipped || len(verdicts) > 2 {
		t.Fatalf("verdict records %v, want the counts of %+v", verdicts, st)
	}
}

func TestShadowOfferAfterCloseSkips(t *testing.T) {
	job, _ := solvePrimary(t, 24)
	v := New(Config{Rate: 1})
	v.Close()
	if v.Offer(job) {
		t.Fatal("Offer succeeded after Close")
	}
	if st := v.Stats(); st.Skipped != 1 {
		t.Fatalf("want skipped=1 after closed offer, got %+v", st)
	}
	v.Close() // idempotent
}

func TestShadowRungMatrix(t *testing.T) {
	ctmc, err := nvp.BuildNoRejuvenation(nvp.DefaultFourVersion())
	if err != nil {
		t.Fatal(err)
	}
	clocked, err := nvp.BuildWithRejuvenation(nvp.DefaultSixVersion())
	if err != nil {
		t.Fatal(err)
	}
	wp := nvp.DefaultSixVersion()
	wp.Clock = nvp.ClockWaitsForWave
	general, err := nvp.BuildWithRejuvenation(wp)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		model *nvp.Model
		path  petri.SolvePath
		want  string
	}{
		{ctmc, petri.PathSparse, "gth"},
		{ctmc, petri.PathDense, "power"},
		{ctmc, petri.PathSparseFallbackDense, "power"},
		{ctmc, petri.PathDenseFallbackPower, "gs"},
		{ctmc, petri.PathSparseFallbackPower, ""},
		{clocked, petri.PathSparse, "mrgp-dense"},
		{clocked, petri.PathDense, "mrgp-sparse"},
		{clocked, petri.PathSparseFallbackDense, ""},
		{general, petri.PathDense, ""},
	}
	for _, c := range cases {
		if got := c.model.ShadowRung(petri.SolveDiag{Path: c.path}); got != c.want {
			t.Errorf("%s ShadowRung(%v) = %q, want %q", c.model.SolverKind(), c.path, got, c.want)
		}
	}
}

// TestShadowSkipsRecoveredMRGP: a sparse MRGP solve that stalled and was
// rescued by the dense formulation has already run both formulations, so
// the shadow layer must skip it instead of re-solving on the sparse path
// that just failed.
func TestShadowSkipsRecoveredMRGP(t *testing.T) {
	faultinject.Reset()
	if err := faultinject.Arm(faultinject.Fault{Site: "mrgp.power.stall"}, 1); err != nil {
		t.Fatalf("arm: %v", err)
	}
	faultinject.Enable()
	t.Cleanup(func() {
		faultinject.Disable()
		faultinject.Reset()
	})
	p := nvp.DefaultSixVersion()
	p.N = 10
	model, err := nvp.BuildWithRejuvenation(p)
	if err != nil {
		t.Fatal(err)
	}
	pi, diag, err := model.SolveWith(context.Background(), linalg.NewWorkspace(), nvp.Opts{})
	faultinject.Disable()
	if err != nil {
		t.Fatalf("solve did not recover: %v", err)
	}
	if diag.Path != petri.PathSparseFallbackDense {
		t.Fatalf("path = %v, want %v", diag.Path, petri.PathSparseFallbackDense)
	}
	rel, err := model.ExpectedPaperReliabilityFrom(pi)
	if err != nil {
		t.Fatal(err)
	}
	v := newTestVerifier(t, Config{})
	v.Offer(Job{Arch: "6v", Params: p, KeyHash: "recovered", Pi: pi, Rel: rel, Diag: diag})
	v.Flush()
	if st := v.Stats(); st.Skipped != 1 || st.Agree+st.Diverge+st.Errors != 0 {
		t.Fatalf("want 1 skipped, got %+v", st)
	}
}
