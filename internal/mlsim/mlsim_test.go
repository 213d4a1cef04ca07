package mlsim

import (
	"errors"
	"math"
	"slices"
	"testing"

	"nvrel/internal/des"
	"nvrel/internal/reliability"
)

func TestNewErrorModelValidation(t *testing.T) {
	if _, err := NewErrorModel(-0.1, 0.5, 0.5); err == nil {
		t.Error("negative p accepted")
	}
	if _, err := NewErrorModel(0.1, 1.5, 0.5); err == nil {
		t.Error("p' > 1 accepted")
	}
	if _, err := NewErrorModel(0.1, 0.5, math.NaN()); err == nil {
		t.Error("NaN alpha accepted")
	}
	if _, err := NewErrorModel(0.08, 0.5, 0.5); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestSampleCorrectnessMarginals(t *testing.T) {
	m, err := NewErrorModel(0.08, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := des.NewRNG(1)
	const (
		samples     = 200000
		healthy     = 4
		compromised = 2
	)
	healthyErrs, compromisedErrs := 0, 0
	for s := 0; s < samples; s++ {
		out := m.SampleCorrectness(rng, healthy, compromised)
		if len(out) != healthy+compromised {
			t.Fatalf("len = %d", len(out))
		}
		for i := 0; i < healthy; i++ {
			if !out[i] {
				healthyErrs++
			}
		}
		for i := healthy; i < healthy+compromised; i++ {
			if !out[i] {
				compromisedErrs++
			}
		}
	}
	// Healthy marginal: p * (1/i + (i-1)/i * alpha) per module.
	wantHealthy := 0.08 * (1.0/healthy + float64(healthy-1)/healthy*0.5)
	gotHealthy := float64(healthyErrs) / float64(samples*healthy)
	if math.Abs(gotHealthy-wantHealthy) > 0.003 {
		t.Errorf("healthy error marginal = %.4f, want ~%.4f", gotHealthy, wantHealthy)
	}
	gotCompromised := float64(compromisedErrs) / float64(samples*compromised)
	if math.Abs(gotCompromised-0.5) > 0.005 {
		t.Errorf("compromised error marginal = %.4f, want ~0.5", gotCompromised)
	}
}

func TestSampleCorrectnessAtLeastOneVictim(t *testing.T) {
	// With p = 1 the perturbation always fires: at least one healthy
	// module must err in every sample.
	m, err := NewErrorModel(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := des.NewRNG(2)
	for s := 0; s < 1000; s++ {
		out := m.SampleCorrectness(rng, 5, 0)
		errs := 0
		for _, ok := range out {
			if !ok {
				errs++
			}
		}
		if errs != 1 {
			// alpha = 0: exactly the single victim errs.
			t.Fatalf("errs = %d, want 1", errs)
		}
	}
}

func TestSampleCorrectnessFullDependency(t *testing.T) {
	// alpha = 1: when the perturbation fires, every healthy module errs.
	m, err := NewErrorModel(0.5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := des.NewRNG(3)
	for s := 0; s < 2000; s++ {
		out := m.SampleCorrectness(rng, 4, 0)
		errs := 0
		for _, ok := range out {
			if !ok {
				errs++
			}
		}
		if errs != 0 && errs != 4 {
			t.Fatalf("errs = %d, want 0 or 4 under full dependency", errs)
		}
	}
}

// TestSampleCorrectnessMatchesGenerativeModel verifies that the sampler's
// joint law equals the closed-form reliability.Generative model: the
// Monte Carlo frequency of ">= threshold wrong" must match 1 - R.
func TestSampleCorrectnessMatchesGenerativeModel(t *testing.T) {
	const (
		healthy     = 4
		compromised = 2
		threshold   = 4
		samples     = 400000
	)
	pr := reliability.Params{P: 0.08, PPrime: 0.5, Alpha: 0.5}
	rf, err := reliability.Generative(pr, reliability.Scheme{N: 6, F: 1, R: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewErrorModel(pr.P, pr.PPrime, pr.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	rng := des.NewRNG(123)
	errCount := 0
	for s := 0; s < samples; s++ {
		out := m.SampleCorrectness(rng, healthy, compromised)
		wrong := 0
		for _, ok := range out {
			if !ok {
				wrong++
			}
		}
		if wrong >= threshold {
			errCount++
		}
	}
	got := float64(errCount) / samples
	want := 1 - rf(healthy, compromised, 0)
	if math.Abs(got-want) > 0.002 {
		t.Errorf("P(>=%d wrong) = %.5f, closed form %.5f", threshold, got, want)
	}
}

func TestSampleCorrectnessPanicsOnNegative(t *testing.T) {
	m, _ := NewErrorModel(0.1, 0.5, 0.5)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m.SampleCorrectness(des.NewRNG(1), -1, 0)
}

func TestSampleLabels(t *testing.T) {
	m, err := NewErrorModel(0.5, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := des.NewRNG(4)
	const (
		truth   = 7
		classes = 10
	)
	for s := 0; s < 2000; s++ {
		labels, err := m.SampleLabels(rng, truth, classes, 3, 2, CommonWrongLabel)
		if err != nil {
			t.Fatal(err)
		}
		if len(labels) != 5 {
			t.Fatalf("len = %d", len(labels))
		}
		var wrong []int
		for _, l := range labels {
			if l < 0 || l >= classes {
				t.Fatalf("label %d out of range", l)
			}
			if l != truth {
				wrong = append(wrong, l)
			}
		}
		// Under CommonWrongLabel, every erring module shares one label.
		for i := 1; i < len(wrong); i++ {
			if wrong[i] != wrong[0] {
				t.Fatalf("wrong labels disagree under CommonWrongLabel: %v", wrong)
			}
		}
	}
}

func TestSampleLabelsIndependentPolicy(t *testing.T) {
	m, _ := NewErrorModel(1, 1, 1)
	rng := des.NewRNG(5)
	disagreements := 0
	for s := 0; s < 500; s++ {
		labels, err := m.SampleLabels(rng, 0, 50, 4, 0, IndependentWrongLabels)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]bool)
		for _, l := range labels {
			seen[l] = true
		}
		if len(seen) > 1 {
			disagreements++
		}
	}
	if disagreements < 400 {
		t.Errorf("independent wrong labels almost always disagree with 50 classes; got %d/500", disagreements)
	}
}

func TestSampleLabelsValidation(t *testing.T) {
	m, _ := NewErrorModel(0.1, 0.5, 0.5)
	rng := des.NewRNG(1)
	if _, err := m.SampleLabels(rng, 0, 1, 2, 0, CommonWrongLabel); !errors.Is(err, ErrTooFewClasses) {
		t.Errorf("err = %v", err)
	}
	if _, err := m.SampleLabels(rng, 9, 5, 2, 0, CommonWrongLabel); err == nil {
		t.Error("out-of-range truth accepted")
	}
}

func TestWrongLabelNeverTruth(t *testing.T) {
	rng := des.NewRNG(6)
	for truth := 0; truth < 5; truth++ {
		for s := 0; s < 200; s++ {
			if l := wrongLabel(rng, truth, 5); l == truth || l < 0 || l >= 5 {
				t.Fatalf("wrongLabel(truth=%d) = %d", truth, l)
			}
		}
	}
}

func TestWrongLabelPolicyString(t *testing.T) {
	if CommonWrongLabel.String() != "common-wrong-label" ||
		IndependentWrongLabels.String() != "independent-wrong-labels" ||
		WrongLabelPolicy(9).String() != "WrongLabelPolicy(9)" {
		t.Error("policy names wrong")
	}
}

func TestNewSignBenchmarkValidation(t *testing.T) {
	if _, err := NewSignBenchmark(BenchmarkConfig{Classes: 1, Dims: 8}); err == nil {
		t.Error("single class accepted")
	}
	if _, err := NewSignBenchmark(BenchmarkConfig{Classes: 5, Dims: 0}); err == nil {
		t.Error("zero dims accepted")
	}
	if _, err := NewSignBenchmark(BenchmarkConfig{Classes: 5, Dims: 4, InputNoise: -1}); err == nil {
		t.Error("negative noise accepted")
	}
}

func defaultBenchmark(t *testing.T) *SignBenchmark {
	t.Helper()
	b, err := NewSignBenchmark(DefaultBenchmarkConfig())
	if err != nil {
		t.Fatalf("NewSignBenchmark: %v", err)
	}
	return b
}

func TestDefaultBenchmarkReproducesPaperP(t *testing.T) {
	// The calibrated defaults play the role of "average inaccuracy of
	// LeNet/AlexNet/ResNet on GTSRB": the measured p must land near the
	// paper's 0.08.
	b := defaultBenchmark(t)
	var cs []*Classifier
	for i := 0; i < 3; i++ {
		c, err := b.NewClassifier(DefaultDiversity, uint64(10+i))
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	p, err := b.EstimateEnsembleInaccuracy(cs, 6000, des.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.05 || p > 0.11 {
		t.Errorf("measured p = %.4f, want near the paper's 0.08", p)
	}
}

func TestBenchmarkNoiselessClassifierIsPerfect(t *testing.T) {
	b, err := NewSignBenchmark(BenchmarkConfig{Classes: 10, Dims: 16, InputNoise: 0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.NewClassifier(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.EstimateInaccuracy(c, 2000, des.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Errorf("noiseless inaccuracy = %g, want 0", p)
	}
}

func TestBenchmarkHealthyInaccuracyModerate(t *testing.T) {
	// The default benchmark is tuned so that diverse healthy classifiers
	// land in the paper's regime (a few percent inaccuracy).
	b := defaultBenchmark(t)
	var cs []*Classifier
	for i := 0; i < 3; i++ {
		c, err := b.NewClassifier(DefaultDiversity, uint64(10+i))
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	p, err := b.EstimateEnsembleInaccuracy(cs, 4000, des.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 || p > 0.3 {
		t.Errorf("ensemble inaccuracy = %g, want in (0, 0.3]", p)
	}
}

func TestBenchmarkCompromiseDegradesAccuracy(t *testing.T) {
	b := defaultBenchmark(t)
	c, err := b.NewClassifier(0.1, 20)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := b.EstimateInaccuracy(c, 4000, des.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	c.Compromise(3)
	if !c.Compromised() {
		t.Error("Compromised() = false after Compromise")
	}
	attacked, err := b.EstimateInaccuracy(c, 4000, des.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	if attacked <= healthy+0.1 {
		t.Errorf("attack did not degrade accuracy: healthy %g, attacked %g", healthy, attacked)
	}
	c.Rejuvenate()
	if c.Compromised() {
		t.Error("Compromised() = true after Rejuvenate")
	}
	restored, err := b.EstimateInaccuracy(c, 4000, des.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(restored-healthy) > 0.02 {
		t.Errorf("rejuvenation did not restore accuracy: %g vs %g", restored, healthy)
	}
}

func TestBenchmarkDiversityCreatesDisagreement(t *testing.T) {
	// Diverse modules must err on (partially) different inputs; identical
	// modules err identically.
	b := defaultBenchmark(t)
	c1, _ := b.NewClassifier(0.15, 31)
	c2, _ := b.NewClassifier(0.15, 32)
	rng := des.NewRNG(7)
	disagree := 0
	const n = 3000
	for i := 0; i < n; i++ {
		x, _ := b.Sample(rng)
		if c1.Classify(x) != c2.Classify(x) {
			disagree++
		}
	}
	if disagree == 0 {
		t.Error("diverse classifiers never disagree")
	}
}

func TestBenchmarkEstimateValidation(t *testing.T) {
	b := defaultBenchmark(t)
	c, _ := b.NewClassifier(0.1, 1)
	if _, err := b.EstimateInaccuracy(c, 0, des.NewRNG(1)); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := b.EstimateEnsembleInaccuracy(nil, 10, des.NewRNG(1)); err == nil {
		t.Error("empty ensemble accepted")
	}
	if _, err := b.NewClassifier(-1, 1); err == nil {
		t.Error("negative diversity accepted")
	}
}

func TestBenchmarkSampleLabelRange(t *testing.T) {
	b := defaultBenchmark(t)
	rng := des.NewRNG(8)
	for i := 0; i < 500; i++ {
		x, label := b.Sample(rng)
		if label < 0 || label >= b.Classes() {
			t.Fatalf("label %d out of range", label)
		}
		if len(x) != 24 {
			t.Fatalf("dim = %d", len(x))
		}
	}
}

func TestGaussianMoments(t *testing.T) {
	rng := des.NewRNG(9)
	var sum, sumSq float64
	const n = 200000
	for i := 0; i < n; i++ {
		g := rng.Norm()
		sum += g
		sumSq += g * g
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("Norm mean = %g", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("Norm variance = %g", variance)
	}
}

// refSampleCorrectness and refSampleLabels are the original allocating
// samplers, kept verbatim as the draw-order reference.
func refSampleCorrectness(m *ErrorModel, rng *des.RNG, healthy, compromised int) []bool {
	out := make([]bool, healthy+compromised)
	for i := range out {
		out[i] = true
	}
	if healthy > 0 && rng.Bernoulli(m.P) {
		victim := rng.Intn(healthy)
		out[victim] = false
		for i := 0; i < healthy; i++ {
			if i != victim && rng.Bernoulli(m.Alpha) {
				out[i] = false
			}
		}
	}
	for i := 0; i < compromised; i++ {
		if rng.Bernoulli(m.PPrime) {
			out[healthy+i] = false
		}
	}
	return out
}

func refSampleLabels(m *ErrorModel, rng *des.RNG, truth, classes, healthy, compromised int, policy WrongLabelPolicy) []int {
	correct := refSampleCorrectness(m, rng, healthy, compromised)
	labels := make([]int, len(correct))
	common := wrongLabel(rng, truth, classes)
	for i, ok := range correct {
		switch {
		case ok:
			labels[i] = truth
		case policy == CommonWrongLabel:
			labels[i] = common
		default:
			labels[i] = wrongLabel(rng, truth, classes)
		}
	}
	return labels
}

// Property: the buffer-reusing samplers, fed dirty buffers of random length
// and capacity, return what the allocating samplers and the original
// reference return, and leave every rng in the same state.
func TestSampleIntoMatchesAllocatingProperty(t *testing.T) {
	gen := des.NewRNG(99)
	var correctBuf []bool
	var labelBuf []int
	for iter := 0; iter < 5000; iter++ {
		m, err := NewErrorModel(gen.Float64(), gen.Float64(), gen.Float64())
		if err != nil {
			t.Fatal(err)
		}
		healthy, compromised := gen.Intn(7), gen.Intn(4)
		classes := 2 + gen.Intn(50)
		truth := gen.Intn(classes)
		policy := CommonWrongLabel
		if gen.Bernoulli(0.5) {
			policy = IndependentWrongLabels
		}
		// Dirty the buffers: stale contents, random length and capacity.
		if gen.Bernoulli(0.2) {
			correctBuf = make([]bool, gen.Intn(12))
			labelBuf = make([]int, gen.Intn(12))
		}
		for i := range correctBuf {
			correctBuf[i] = gen.Bernoulli(0.5)
		}
		for i := range labelBuf {
			labelBuf[i] = gen.Intn(100) - 50
		}

		seed := gen.Uint64()
		ref, alloc, into := des.NewRNG(seed), des.NewRNG(seed), des.NewRNG(seed)
		want := refSampleCorrectness(m, ref, healthy, compromised)
		got := m.SampleCorrectness(alloc, healthy, compromised)
		correctBuf = m.SampleCorrectnessInto(correctBuf, into, healthy, compromised)
		if !slices.Equal(got, want) || !slices.Equal(correctBuf, want) {
			t.Fatalf("iter %d: correctness alloc %v, into %v, want %v", iter, got, correctBuf, want)
		}
		wantLabels := refSampleLabels(m, ref, truth, classes, healthy, compromised, policy)
		gotLabels, err := m.SampleLabels(alloc, truth, classes, healthy, compromised, policy)
		if err != nil {
			t.Fatal(err)
		}
		labelBuf, err = m.SampleLabelsInto(labelBuf, into, truth, classes, healthy, compromised, policy)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotLabels, wantLabels) || !slices.Equal(labelBuf, wantLabels) {
			t.Fatalf("iter %d: labels alloc %v, into %v, want %v", iter, gotLabels, labelBuf, wantLabels)
		}
		if r, a, i := ref.Uint64(), alloc.Uint64(), into.Uint64(); r != a || r != i {
			t.Fatalf("iter %d: rng states diverged: %x %x %x", iter, r, a, i)
		}
	}
}
