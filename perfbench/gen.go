package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"time"

	"nvrel"
	"nvrel/internal/servecache"
)

// point is one /solve body. Only the fields the benchmark varies are sent;
// the daemon fills the rest from the Table II defaults, exactly as
// resolve does here for the in-process reference.
type point struct {
	Arch     string  `json:"arch"`
	N        int     `json:"n"`
	MTTC     float64 `json:"mttc"`
	Interval float64 `json:"interval,omitempty"`
}

// params resolves p the way `nvrel serve` resolves a request body:
// six-version defaults, and for "4v" no rejuvenation modules (R=0).
func (p point) params() nvrel.Params {
	q := nvrel.DefaultSixVersion()
	if p.Arch == "4v" {
		q.R = 0
	}
	q.N = p.N
	q.MeanTimeToCompromise = p.MTTC
	if p.Interval != 0 {
		q.RejuvenationInterval = p.Interval
	}
	return q
}

// key is the daemon's result-cache key for p (servecache.Key over the
// same signature layout cmd/nvrel/serve.go uses), so the benchmark can
// prove its generators never repeat one.
func (p point) key() string {
	q := p.params()
	return servecache.Key(p.Arch, []float64{
		float64(q.N), float64(q.F), float64(q.R),
		q.Alpha, q.P, q.PPrime,
		q.MeanTimeToCompromise, q.MeanTimeToFailure, q.MeanTimeToRepair,
		q.MeanTimeToRejuvenate, q.RejuvenationInterval,
		float64(q.Semantics), float64(q.Clock),
	})
}

func (p point) body() []byte {
	b, err := json.Marshal(p)
	if err != nil {
		panic(err) // a struct of numbers and a string always marshals
	}
	return b
}

// Sizes of the serve-hot traffic.
const (
	hotSetSize = 64   // paper-scale points that repeat
	hotShare   = 0.9  // share of requests drawn from the hot set
	cacheBound = 4096 // `nvrel serve` default -cache-size
)

// hotSet draws the repeating paper-scale points: half four-version N=4,
// half six-version N=6 with a varied rejuvenation interval. Both route to
// the dense solvers.
func hotSet(seed int64) []point {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed01))
	pts := make([]point, hotSetSize)
	for i := range pts {
		mttc := 300 + math.Round(rng.Float64()*2700*8)/8
		if i%2 == 0 {
			pts[i] = point{Arch: "4v", N: 4, MTTC: mttc}
		} else {
			pts[i] = point{Arch: "6v", N: 6, MTTC: mttc, Interval: 100 + math.Round(rng.Float64()*1900*8)/8}
		}
	}
	return pts
}

// missPoint is the k-th unique cheap miss: a four-version N=4 point whose
// MTTC lies in a band no hot or prefill point uses, distinct for every k.
func missPoint(seed int64, k int) point {
	base := 5000 + float64(uint64(seed)%1000)
	return point{Arch: "4v", N: 4, MTTC: base + float64(k)/8}
}

// prefillPoint is the k-th point used to fill the result cache to its
// bound before timing, so timed misses evict.
func prefillPoint(k int) point {
	return point{Arch: "4v", N: 4, MTTC: 1e6 + float64(k)/8}
}

// arrival is one scheduled serve-hot request.
type arrival struct {
	due time.Duration // offset from the phase start
	pt  point
	hot bool
}

// hotStream generates serve-hot arrivals: Poisson at a given rate, each a
// hot-set point with probability hotShare, else the next unique miss.
type hotStream struct {
	rng    *rand.Rand
	seed   int64
	hot    []point
	misses int
}

func newHotStream(seed int64) *hotStream {
	return &hotStream{rng: rand.New(rand.NewSource(seed)), seed: seed, hot: hotSet(seed)}
}

// schedule returns the arrivals of one phase of length d at rate r.
func (s *hotStream) schedule(rate float64, d time.Duration) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += s.rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		a := arrival{due: time.Duration(t * float64(time.Second))}
		if s.rng.Float64() < hotShare {
			a.pt, a.hot = s.hot[s.rng.Intn(len(s.hot))], true
		} else {
			a.pt = missPoint(s.seed, s.misses)
			s.misses++
		}
		out = append(out, a)
	}
}

// coldItem is one serve-cold request: a single /solve point, or a
// /solve/batch envelope when len(pts) > 1.
type coldItem struct {
	pts []point
}

const (
	coldBatchEvery = 4 // one request in four is a batch
	coldBatchSize  = 8
)

// The serve-cold parameter box (seconds).
var (
	coldMTTC     = [2]float64{600, 3000}
	coldInterval = [2]float64{300, 450}
)

// coldWalk is the serve-cold point source: six-version models at N=10 or
// N=12 (both above linalg.SparseThreshold, so both take the sparse MRGP
// path), N alternating, with MTTC and the rejuvenation interval walked
// through a seeded order of strata of the parameter box. Solve cost varies
// several-fold across the box, so each N visits every stratum once before
// any twice: whatever the seed, a run asks for about the same solver work.
// Points land near earlier ones of the same topology, so the warm-start
// registry has neighbours to offer, but no point repeats: one that would
// land on a key already seen is redrawn.
type coldWalk struct {
	rng    *rand.Rand
	seen   map[string]bool
	strata map[int]*[2][]int // per N: pending MTTC and interval strata
	items  int
	points int
}

// Strata per axis of the serve-cold box.
const (
	coldMTTCStrata     = 8
	coldIntervalStrata = 5
)

func newColdWalk(seed int64) *coldWalk {
	return &coldWalk{
		rng:    rand.New(rand.NewSource(seed ^ 0xc01d)),
		seen:   make(map[string]bool),
		strata: make(map[int]*[2][]int),
	}
}

// draw takes the next stratum from q (refilled with a fresh permutation
// of n strata when empty) and returns a uniform point inside it.
func (w *coldWalk) draw(q *[]int, n int, box [2]float64) float64 {
	if len(*q) == 0 {
		*q = w.rng.Perm(n)
	}
	s := (*q)[0]
	*q = (*q)[1:]
	return box[0] + (float64(s)+w.rng.Float64())/float64(n)*(box[1]-box[0])
}

func (w *coldWalk) next() point {
	for {
		n := 10 + 2*(w.points%2)
		w.points++
		st := w.strata[n]
		if st == nil {
			st = new([2][]int)
			w.strata[n] = st
		}
		p := point{Arch: "6v", N: n,
			MTTC:     w.draw(&st[0], coldMTTCStrata, coldMTTC),
			Interval: w.draw(&st[1], coldIntervalStrata, coldInterval)}
		if k := p.key(); !w.seen[k] {
			w.seen[k] = true
			return p
		}
	}
}

// nextItem returns the next request: every coldBatchEvery-th is a batch.
func (w *coldWalk) nextItem() coldItem {
	w.items++
	n := 1
	if w.items%coldBatchEvery == 0 {
		n = coldBatchSize
	}
	it := coldItem{pts: make([]point, n)}
	for i := range it.pts {
		it.pts[i] = w.next()
	}
	return it
}
