package mlsim

import (
	"math"
	"testing"

	"nvrel/internal/des"
)

// refClassify scores one class at a time, each as one chain of additions
// from +0, drawing a class's attack noise right after scoring it: the
// scalar form the blocked Classify must reproduce.
func refClassify(c *Classifier, x []float64) int {
	best, bestScore := 0, math.Inf(-1)
	for label, w := range c.weights {
		var score float64
		for d := range w {
			score += w[d] * x[d]
		}
		if c.attackNoise > 0 {
			score += c.attackNoise * c.rng.Norm()
		}
		if score > bestScore {
			best, bestScore = label, score
		}
	}
	return best
}

// wildVector fills v with values whose in-order sums depend on the order
// of the additions: mixed signs and magnitudes from 1e-300 to 1e300, exact
// cancellations, signed zeros and repeated values that make ties.
func wildVector(r *des.RNG, v []float64) {
	for d := range v {
		switch r.Intn(6) {
		case 0:
			v[d] = r.Norm()
		case 1:
			v[d] = r.Norm() * math.Pow(10, float64(r.Intn(600)-300))
		case 2:
			v[d] = math.Copysign(0, r.Norm())
		case 3:
			v[d] = float64(r.Intn(5) - 2)
		case 4:
			v[d] = 1e16 * float64(r.Intn(3)-1)
		default:
			if d > 0 {
				v[d] = -v[d-1]
			}
		}
	}
}

func TestDot4MatchesDotBits(t *testing.T) {
	r := des.NewRNG(404)
	for iter := 0; iter < 20000; iter++ {
		n := r.Intn(40)
		rows := make([][]float64, 4)
		for k := range rows {
			rows[k] = make([]float64, n)
			wildVector(r, rows[k])
		}
		x := make([]float64, n+r.Intn(3)) // x may be longer than the rows
		wildVector(r, x)
		got := [4]float64{}
		got[0], got[1], got[2], got[3] = dot4(rows[0], rows[1], rows[2], rows[3], x)
		for k, w := range rows {
			want := refDot(w, x)
			if math.Float64bits(got[k]) != math.Float64bits(want) {
				t.Fatalf("iter %d row %d: dot4 = %v (%#x), scalar %v (%#x)",
					iter, k, got[k], math.Float64bits(got[k]), want, math.Float64bits(want))
			}
		}
	}
}

// refDot is w·x as one chain of additions from +0.
func refDot(w, x []float64) float64 {
	var s float64
	for d := range w {
		s += w[d] * x[d]
	}
	return s
}

// TestClassifyMatchesScalarReference: for class counts on and off the
// block size, with and without attack noise, the blocked Classify returns
// the scalar reference's label and leaves the classifier's RNG where the
// reference leaves it.
func TestClassifyMatchesScalarReference(t *testing.T) {
	gen := des.NewRNG(505)
	for classes := 2; classes <= 13; classes++ {
		for _, noise := range []float64{0, 0.05, 3} {
			dims := 1 + gen.Intn(30)
			b, err := NewSignBenchmark(BenchmarkConfig{Classes: classes, Dims: dims, InputNoise: 0.3, Seed: gen.Uint64()})
			if err != nil {
				t.Fatal(err)
			}
			seed := gen.Uint64()
			blocked, err := b.NewClassifier(0.2, seed)
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := b.NewClassifier(0.2, seed)
			blocked.Compromise(noise)
			ref.Compromise(noise)
			x := make([]float64, dims)
			for i := 0; i < 300; i++ {
				if i%3 == 0 {
					wildVector(gen, x)
				} else {
					b.sampleInto(x, gen)
				}
				if got, want := blocked.Classify(x), refClassify(ref, x); got != want {
					t.Fatalf("classes %d noise %g input %d: label %d, scalar %d", classes, noise, i, got, want)
				}
			}
			if a, r := blocked.rng.Uint64(), ref.rng.Uint64(); a != r {
				t.Errorf("classes %d noise %g: RNG streams diverged", classes, noise)
			}
		}
	}
}

// TestScoreBodiesMatchDot4Bits: every class-score body this host supports
// scores each class bit for bit as dot4 does, for 1–43 classes and 1–30
// dimensions, with weights of +0, -0 and subnormal magnitude among wide-
// ranging mixed-sign ones, and mixed-sign inputs.
func TestScoreBodiesMatchDot4Bits(t *testing.T) {
	r := des.NewRNG(2931)
	type body struct {
		name string
		run  func(c *Classifier, x, dst []float64)
	}
	bodies := []body{{"rows", func(c *Classifier, x, dst []float64) { scoreRows(c.weights, x, dst) }}}
	if laneScorer != nil {
		bodies = append(bodies, body{"lanes", func(c *Classifier, x, dst []float64) { laneScorer(c.lanes, x, dst) }})
	}
	for _, b := range bodies {
		t.Logf("host body %s", b.name)
	}
	sprinkle := func(v []float64) {
		for d := range v {
			switch r.Intn(8) {
			case 0:
				v[d] = math.Copysign(0, -1)
			case 1:
				v[d] = 0
			case 2:
				v[d] = r.Norm() * 0x1p-1040
			}
		}
	}
	for classes := 1; classes <= 43; classes++ {
		for dims := 1; dims <= 30; dims++ {
			rows := make([][]float64, classes)
			for k := range rows {
				rows[k] = make([]float64, dims)
				wildVector(r, rows[k])
				sprinkle(rows[k])
			}
			x := make([]float64, dims)
			for d := range x {
				x[d] = r.Norm() * math.Pow(2, float64(r.Intn(40)-20))
			}
			sprinkle(x)
			c := newClassifier(rows, des.NewRNG(1))
			for _, b := range bodies {
				dst := make([]float64, len(c.scores))
				b.run(c, x, dst)
				for k, w := range rows {
					want, _, _, _ := dot4(w, w, w, w, x)
					if math.Float64bits(dst[k]) != math.Float64bits(want) {
						t.Fatalf("%s classes %d dims %d class %d: score %v (%#x), dot4 %v (%#x)",
							b.name, classes, dims, k, dst[k], math.Float64bits(dst[k]), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestClassifyBreaksTiesToLowestLabel: equal scores across and within
// blocks go to the lowest label, as the scalar scan's strict > does.
func TestClassifyBreaksTiesToLowestLabel(t *testing.T) {
	for _, classes := range []int{2, 4, 5, 9} {
		rows := func(lastScore float64) [][]float64 {
			w := make([][]float64, classes)
			for k := range w {
				w[k] = []float64{1, 2}
			}
			w[classes-1] = []float64{1, lastScore}
			return w
		}
		c := newClassifier(rows(3), des.NewRNG(1))
		if got := c.Classify([]float64{1, 1}); got != classes-1 {
			t.Errorf("classes %d: best unique score at %d, got %d", classes, classes-1, got)
		}
		c = newClassifier(rows(2), des.NewRNG(1))
		if got := c.Classify([]float64{1, 1}); got != 0 {
			t.Errorf("classes %d: all tied, got label %d, want 0", classes, got)
		}
	}
}

var classifySink int

func BenchmarkClassify(b *testing.B) {
	bench, err := NewSignBenchmark(DefaultBenchmarkConfig())
	if err != nil {
		b.Fatal(err)
	}
	c, err := bench.NewClassifier(DefaultDiversity, 1)
	if err != nil {
		b.Fatal(err)
	}
	x, _ := bench.Sample(des.NewRNG(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		classifySink = c.Classify(x)
	}
}
