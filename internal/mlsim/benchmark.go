package mlsim

import (
	"errors"
	"fmt"
	"math"

	"nvrel/internal/des"
	"nvrel/internal/linalg"
)

// SignBenchmark is a synthetic stand-in for the German Traffic Sign
// Recognition Benchmark: C classes are represented by prototype vectors in
// D dimensions; inputs are prototypes corrupted by observation noise.
// Classifiers are diverse noisy prototype matchers: each module carries its
// own perturbed copy of the prototypes, so modules err on different inputs
// (the diversity NVP relies on) while sharing a common task difficulty.
type SignBenchmark struct {
	classes    int
	dims       int
	inputNoise float64
	prototypes [][]float64
}

// BenchmarkConfig configures a synthetic sign benchmark.
type BenchmarkConfig struct {
	// Classes is the number of sign classes (GTSRB has 43).
	Classes int
	// Dims is the feature dimensionality.
	Dims int
	// InputNoise is the standard deviation of the observation noise added
	// to each prototype coordinate when sampling an input.
	InputNoise float64
	// Seed fixes the prototype geometry.
	Seed uint64
}

// DefaultBenchmarkConfig returns the calibrated stand-in for GTSRB: 43
// classes (as GTSRB) with noise and diversity tuned so a three-module
// ensemble of diverse classifiers (DefaultDiversity) measures roughly the
// paper's healthy inaccuracy p = 0.08.
func DefaultBenchmarkConfig() BenchmarkConfig {
	return BenchmarkConfig{Classes: 43, Dims: 24, InputNoise: 0.2, Seed: 1}
}

// DefaultDiversity is the per-module weight-perturbation level paired with
// DefaultBenchmarkConfig.
const DefaultDiversity = 0.1

// NewSignBenchmark builds the benchmark task.
func NewSignBenchmark(cfg BenchmarkConfig) (*SignBenchmark, error) {
	if cfg.Classes < 2 {
		return nil, ErrTooFewClasses
	}
	if cfg.Dims <= 0 {
		return nil, fmt.Errorf("mlsim: dims = %d must be positive", cfg.Dims)
	}
	if cfg.InputNoise < 0 || math.IsNaN(cfg.InputNoise) {
		return nil, fmt.Errorf("mlsim: input noise = %g must be non-negative", cfg.InputNoise)
	}
	rng := des.NewRNG(cfg.Seed)
	b := &SignBenchmark{
		classes:    cfg.Classes,
		dims:       cfg.Dims,
		inputNoise: cfg.InputNoise,
		prototypes: make([][]float64, cfg.Classes),
	}
	for c := range b.prototypes {
		v := make([]float64, cfg.Dims)
		for d := range v {
			v[d] = rng.Norm()
		}
		normalize(v)
		b.prototypes[c] = v
	}
	return b, nil
}

// Classes returns the number of classes.
func (b *SignBenchmark) Classes() int { return b.classes }

// Sample draws a labeled input: a class chosen uniformly and its prototype
// plus observation noise.
func (b *SignBenchmark) Sample(rng *des.RNG) (x []float64, label int) {
	x = make([]float64, b.dims)
	return x, b.sampleInto(x, rng)
}

// sampleInto is Sample writing the input into x (length dims); it makes
// the same draws in the same order.
func (b *SignBenchmark) sampleInto(x []float64, rng *des.RNG) (label int) {
	label = rng.Intn(b.classes)
	proto := b.prototypes[label]
	for d := range x {
		x[d] = proto[d] + b.inputNoise*rng.Norm()
	}
	return label
}

// Classifier is a diverse prototype matcher, one per ML module version.
type Classifier struct {
	weights     [][]float64 // one row per class: dot4's layout
	lanes       []float64   // the rows in linalg.LaneWeights layout
	scores      []float64   // per-class scores, padded to whole chunks of lanes
	attackNoise float64
	rng         *des.RNG
}

// newClassifier returns a healthy classifier scoring with the given
// per-class weight rows and drawing attack noise from rng.
func newClassifier(weights [][]float64, rng *des.RNG) *Classifier {
	return &Classifier{
		weights: weights,
		lanes:   linalg.LaneWeights(weights),
		scores:  make([]float64, (len(weights)+linalg.LaneChunk-1)/linalg.LaneChunk*linalg.LaneChunk),
		rng:     rng,
	}
}

// NewClassifier derives a module-specific classifier from the benchmark.
// diversity is the standard deviation of the per-module weight
// perturbation: zero yields identical modules, larger values yield more
// diverse (and individually less accurate) modules.
func (b *SignBenchmark) NewClassifier(diversity float64, seed uint64) (*Classifier, error) {
	if diversity < 0 || math.IsNaN(diversity) {
		return nil, errors.New("mlsim: diversity must be non-negative")
	}
	rng := des.NewRNG(seed)
	w := make([][]float64, b.classes)
	for c, proto := range b.prototypes {
		row := make([]float64, b.dims)
		for d, v := range proto {
			row[d] = v + diversity*rng.Norm()
		}
		w[c] = row
	}
	return newClassifier(w, rng), nil
}

// Compromise degrades the classifier: an attack or fault adds persistent
// noise of the given magnitude to every inference (the paper's compromised
// state, where accuracy decays toward random guessing as the magnitude
// grows).
func (c *Classifier) Compromise(magnitude float64) {
	if magnitude < 0 {
		magnitude = 0
	}
	c.attackNoise = magnitude
}

// Rejuvenate restores the classifier to its healthy state (the paper's
// reload-from-safe-memory rejuvenation action).
func (c *Classifier) Rejuvenate() { c.attackNoise = 0 }

// Compromised reports whether the classifier currently carries attack
// noise.
func (c *Classifier) Compromised() bool { return c.attackNoise > 0 }

// laneScorer is the host's SIMD class scorer (linalg.LaneScorer); nil
// means Classify scores with the portable scoreRows.
var laneScorer = linalg.LaneScorer()

// Classify returns the predicted label for input x.
//
// All classes are scored first, then attack noise is drawn in label order
// and added to each score as it is compared: the label and the RNG stream
// are those of scoring one class at a time. Every score is the in-order
// sum from +0 of its class's products, whichever body computes it: the
// lane scorer, eight classes to a vector, or scoreRows.
func (c *Classifier) Classify(x []float64) int {
	scores := c.scoreAll(x)
	best, bestScore := 0, math.Inf(-1)
	for label, score := range scores[:len(c.weights)] {
		if c.attackNoise > 0 {
			score += c.attackNoise * c.rng.Norm()
		}
		if score > bestScore {
			best, bestScore = label, score
		}
	}
	return best
}

// scoreAll fills and returns c.scores with the host's body.
func (c *Classifier) scoreAll(x []float64) []float64 {
	if laneScorer != nil {
		laneScorer(c.lanes, x[:len(c.weights[0])], c.scores)
	} else {
		scoreRows(c.weights, x, c.scores)
	}
	return c.scores
}

// classifyBlock is how many classes scoreRows scores per pass over x.
const classifyBlock = 4

// scoreRows is the portable scorer: it sets scores[k] = rows[k]·x,
// classifyBlock classes per pass (dot4), each into its own accumulator,
// so a block's additions form independent chains instead of one
// dependent chain.
func scoreRows(rows [][]float64, x, scores []float64) {
	var block [classifyBlock]float64
	for lo := 0; lo < len(rows); lo += classifyBlock {
		// A short last block repeats its last row to fill the pass.
		ws := rows[lo:min(lo+classifyBlock, len(rows))]
		last := len(ws) - 1
		block[0], block[1], block[2], block[3] = dot4(ws[0], ws[min(1, last)], ws[min(2, last)], ws[min(3, last)], x)
		copy(scores[lo:], block[:len(ws)])
	}
}

// dot4 returns w0·x … w3·x in one pass over x, each summed over
// d = 0…len(w0)-1 in order from +0, so each is bit for bit the scalar dot
// product. The rows must have equal length.
func dot4(w0, w1, w2, w3, x []float64) (s0, s1, s2, s3 float64) {
	n := len(w0)
	w1, w2, w3, x = w1[:n], w2[:n], w3[:n], x[:n]
	for d, v := range w0 {
		xd := x[d]
		s0 += v * xd
		s1 += w1[d] * xd
		s2 += w2[d] * xd
		s3 += w3[d] * xd
	}
	return s0, s1, s2, s3
}

// EstimateInaccuracy measures a classifier's error rate over n sampled
// inputs: the benchmark's stand-in for the paper's "average inaccuracy of
// LeNet, AlexNet and ResNet on GTSRB" (their p = 0.08).
func (b *SignBenchmark) EstimateInaccuracy(c *Classifier, n int, rng *des.RNG) (float64, error) {
	if n <= 0 {
		return 0, errors.New("mlsim: sample count must be positive")
	}
	errs := 0
	x := make([]float64, b.dims)
	for i := 0; i < n; i++ {
		if label := b.sampleInto(x, rng); c.Classify(x) != label {
			errs++
		}
	}
	return float64(errs) / float64(n), nil
}

// EstimateEnsembleInaccuracy returns the mean inaccuracy over a set of
// classifiers, mirroring the paper's averaging over three networks.
func (b *SignBenchmark) EstimateEnsembleInaccuracy(cs []*Classifier, n int, rng *des.RNG) (float64, error) {
	if len(cs) == 0 {
		return 0, errors.New("mlsim: no classifiers")
	}
	var total float64
	for _, c := range cs {
		p, err := b.EstimateInaccuracy(c, n, rng)
		if err != nil {
			return 0, err
		}
		total += p
	}
	return total / float64(len(cs)), nil
}

func normalize(v []float64) {
	var n float64
	for _, x := range v {
		n += x * x
	}
	n = math.Sqrt(n)
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= n
	}
}
