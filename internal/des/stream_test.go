package des

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"testing"
	"time"
	"unsafe"
)

// drain fires every pending event.
func drain(s *Simulation) {
	for s.Step() {
	}
}

// checkOwnLines fails unless every stream starts a 64-byte line and no two
// streams share one.
func checkOwnLines(t *testing.T, rngs []*RNG) {
	t.Helper()
	if size := unsafe.Sizeof(RNG{}); size != cacheLine {
		t.Fatalf("RNG is %d bytes, want one %d-byte line", size, cacheLine)
	}
	lines := make(map[uintptr]int, len(rngs))
	for i, r := range rngs {
		addr := uintptr(unsafe.Pointer(r))
		if addr%cacheLine != 0 {
			t.Errorf("stream %d at %#x is not line-aligned", i, addr)
		}
		if j, ok := lines[addr/cacheLine]; ok {
			t.Errorf("streams %d and %d share line %#x", j, i, addr/cacheLine*cacheLine)
		}
		lines[addr/cacheLine] = i
	}
}

func TestStreamsOwnCacheLines(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64} {
		checkOwnLines(t, Streams(uint64(n), n))
	}
}

// TestReplicateStreamsOwnCacheLines: the streams Replicate hands its
// replications are one line each.
func TestReplicateStreamsOwnCacheLines(t *testing.T) {
	const n = 33
	got := make([]*RNG, n)
	if _, err := Replicate(n, 5, func(rep int, rng *RNG) (float64, error) {
		got[rep] = rng
		return rng.Float64(), nil
	}); err != nil {
		t.Fatal(err)
	}
	checkOwnLines(t, got)
}

// TestStreamsAreSerialForks: stream i is the (i+1)-th fork of the master,
// the stream Replicate has always given replication i.
func TestStreamsAreSerialForks(t *testing.T) {
	master := NewRNG(41)
	for i, r := range Streams(41, 9) {
		want := master.Fork()
		for k := 0; k < 4; k++ {
			if a, b := r.Uint64(), want.Uint64(); a != b {
				t.Fatalf("stream %d draw %d = %#x, want %#x", i, k, a, b)
			}
		}
	}
}

// mul64Portable is the 32-bit-limb 128-bit product Intn used before
// math/bits.Mul64.
func mul64Portable(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

func TestMul64MatchesPortableForm(t *testing.T) {
	edges := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	check := func(a, b uint64) {
		hi, lo := bits.Mul64(a, b)
		wantHi, wantLo := mul64Portable(a, b)
		if hi != wantHi || lo != wantLo {
			t.Fatalf("Mul64(%#x, %#x) = (%#x, %#x), portable (%#x, %#x)", a, b, hi, lo, wantHi, wantLo)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	r := NewRNG(71)
	for i := 0; i < 100000; i++ {
		a, b := r.Uint64(), r.Uint64()
		check(a, b)
		check(a, b>>(r.Uint64()%64)) // small bounds, as Intn sees them
	}
}

func TestRunUntilRejectsNonFiniteHorizon(t *testing.T) {
	for _, horizon := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var s Simulation
		var h Handle
		fired := 0
		var tick Action
		tick = func() {
			fired++
			if err := s.Rearm(&h, 1, tick); err != nil {
				t.Error(err) // tick runs on the RunUntil goroutine
			}
		}
		if err := s.Rearm(&h, 1, tick); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- s.RunUntil(horizon) }()
		select {
		case err := <-done:
			var nf *NonFiniteError
			if !errors.As(err, &nf) || nf.Name != "horizon" {
				t.Errorf("RunUntil(%g) = %v, want a *NonFiniteError for the horizon", horizon, err)
			}
			if fired != 0 || s.Now() != 0 {
				t.Errorf("RunUntil(%g) fired %d events, clock %g; want none, 0", horizon, fired, s.Now())
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("RunUntil(%g) did not return", horizon)
		}
	}
}

func TestCheckFinite(t *testing.T) {
	for _, tt := range []struct {
		v  float64
		ok bool
	}{
		{0, true}, {-1, true}, {math.MaxFloat64, true}, {math.SmallestNonzeroFloat64, true},
		{math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false},
	} {
		err := CheckFinite("x", tt.v)
		var nf *NonFiniteError
		if got := err == nil; got != tt.ok {
			t.Errorf("CheckFinite(%g) = %v, want ok=%v", tt.v, err, tt.ok)
		}
		if !tt.ok && (!errors.As(err, &nf) || nf.Name != "x" || err.Error() != fmt.Sprintf("x = %g must be finite", tt.v)) {
			t.Errorf("CheckFinite(%g) = %v, want a *NonFiniteError naming x", tt.v, err)
		}
	}
}
