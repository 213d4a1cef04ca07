package linalg

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzApplySeed decodes a seed from little-endian float64s (optionally
// one entry short of dst). ApplySeed must never panic. An accepted seed
// leaves dst finite, non-negative and summing to 1 within 1e-12; a
// rejected one leaves dst bit-for-bit untouched.
func FuzzApplySeed(f *testing.F) {
	floats := func(vs ...float64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(floats(1, 1, 2), false)
	f.Add(floats(0.25, 0.25, 0.5), true)
	f.Add(floats(1, math.NaN(), 1), false)
	f.Add(floats(1, math.Inf(1), 1), false)
	f.Add(floats(1, -0.5, 1), false)
	f.Add(floats(0, 0, 0), false)
	f.Add(floats(math.MaxFloat64, math.MaxFloat64, 1), false)
	f.Add(floats(math.MaxFloat64/2, math.MaxFloat64/2), false)
	f.Add(floats(5e-324, 0, 0), false) // mass too small to invert
	f.Add(floats(math.Copysign(0, -1), 1), false)
	f.Add([]byte{1, 2, 3}, false)
	f.Fuzz(func(t *testing.T, data []byte, short bool) {
		seed := make([]float64, len(data)/8)
		for i := range seed {
			seed[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		n := len(seed)
		if short {
			n++
		}
		dst := make([]float64, n)
		for i := range dst {
			dst[i] = math.Float64frombits(0x7ff8dead00000000 | uint64(i)) // NaN with a payload
		}
		if !ApplySeed(dst, seed) {
			for i, v := range dst {
				if math.Float64bits(v) != 0x7ff8dead00000000|uint64(i) {
					t.Fatalf("rejected seed %v wrote dst[%d] = %g", seed, i, v)
				}
			}
			return
		}
		var sum float64
		for i, v := range dst {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("accepted seed %v wrote dst[%d] = %g", seed, i, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("accepted seed %v normalized to mass %.17g", seed, sum)
		}
	})
}
