package percept

import (
	"errors"
	"math"
	"testing"
	"unsafe"

	"nvrel/internal/des"
)

// nonFiniteCases sets one of a run's times to NaN or ±Inf.
var nonFiniteCases = []struct {
	name  string
	field string
	set   func(horizon, warmUp, interval *float64)
}{
	{"horizon NaN", "horizon", func(h, _, _ *float64) { *h = math.NaN() }},
	{"horizon +Inf", "horizon", func(h, _, _ *float64) { *h = math.Inf(1) }},
	{"horizon -Inf", "horizon", func(h, _, _ *float64) { *h = math.Inf(-1) }},
	{"warm-up NaN", "warm-up", func(_, w, _ *float64) { *w = math.NaN() }},
	{"warm-up +Inf", "warm-up", func(_, w, _ *float64) { *w = math.Inf(1) }},
	{"request interval NaN", "request interval", func(_, _, r *float64) { *r = math.NaN() }},
	{"request interval +Inf", "request interval", func(_, _, r *float64) { *r = math.Inf(1) }},
	{"request interval -Inf", "request interval", func(_, _, r *float64) { *r = math.Inf(-1) }},
}

// checkNonFinite fails unless err carries a *des.NonFiniteError naming
// field.
func checkNonFinite(t *testing.T, err error, field string) {
	t.Helper()
	if err == nil {
		t.Fatalf("non-finite %s accepted", field)
	}
	var nf *des.NonFiniteError
	if !errors.As(err, &nf) || nf.Name != field {
		t.Errorf("err = %v, want a *des.NonFiniteError for the %s", err, field)
	}
}

func TestConfigRejectsNonFiniteTimes(t *testing.T) {
	for _, tt := range nonFiniteCases {
		t.Run(tt.name, func(t *testing.T) {
			cfg := sixVersionConfig()
			tt.set(&cfg.Horizon, &cfg.WarmUp, &cfg.RequestInterval)
			checkNonFinite(t, cfg.Validate(), tt.field)
			_, err := New(cfg, des.NewRNG(1))
			checkNonFinite(t, err, tt.field)
		})
	}
}

func TestHeteroConfigRejectsNonFiniteTimes(t *testing.T) {
	for _, tt := range nonFiniteCases {
		t.Run(tt.name, func(t *testing.T) {
			cfg := heteroConfig()
			tt.set(&cfg.Horizon, &cfg.WarmUp, &cfg.RequestInterval)
			checkNonFinite(t, cfg.Validate(), tt.field)
			_, err := RunHeterogeneous(cfg, des.NewRNG(1))
			checkNonFinite(t, err, tt.field)
		})
	}
}

func TestRunUntilOutageRejectsNonFiniteHorizon(t *testing.T) {
	for _, h := range []float64{math.NaN(), math.Inf(1)} {
		sys, err := New(fourVersionConfig(), des.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		_, err = sys.RunUntilOutage(h)
		checkNonFinite(t, err, "max horizon")
	}
}

// TestReplicateRunsOnLineAlignedStreams: replication i of Replicate runs on
// des.Streams' stream i (its result is that of a System built on it), and
// those streams each own a 64-byte cache line, so concurrent replications
// never write a shared line through their RNGs.
func TestReplicateRunsOnLineAlignedStreams(t *testing.T) {
	cfg := sixVersionConfig()
	cfg.Horizon = 2e5
	const n, seed = 6, 515
	est, err := Replicate(cfg, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	streams := des.Streams(seed, n)
	for i, r := range streams {
		if addr := uintptr(unsafe.Pointer(r)); addr%64 != 0 {
			t.Errorf("stream %d at %#x is not 64-byte aligned", i, addr)
		}
	}
	if size := unsafe.Sizeof(des.RNG{}); size != 64 {
		t.Errorf("des.RNG is %d bytes, want 64", size)
	}
	var rewards des.Accumulator
	for _, r := range streams {
		sys, err := New(cfg, r)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		rewards.Add(res.AnalyticReward)
	}
	if got, want := est.AnalyticReward, rewards.Summarize(); got != want {
		t.Errorf("Replicate estimate %v, replications on des.Streams %v", got, want)
	}
}
