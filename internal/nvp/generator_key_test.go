package nvp

import (
	"math"
	"reflect"
	"testing"
)

// rewardOnlyFields are the Params fields GeneratorKey clears; generator
// fields shape the net, its rates or its delays. Every Params field must
// be in exactly one set, so a field added later fails
// TestGeneratorKeyClassifiesEveryField until someone decides which.
var (
	rewardOnlyFields = map[string]bool{"F": true, "Alpha": true, "P": true, "PPrime": true}
	generatorFields  = map[string]bool{
		"N": true, "R": true,
		"MeanTimeToCompromise": true, "MeanTimeToFailure": true, "MeanTimeToRepair": true,
		"MeanTimeToRejuvenate": true, "RejuvenationInterval": true,
		"Semantics": true, "Clock": true,
	}
)

// perturbField returns p with field i moved to another valid value: ints
// step by delta (F 1 -> 0, N 6 -> 7, Semantics single-server -> per-token,
// Clock free-running -> waits-for-wave), floats scale by 0.7.
func perturbField(t *testing.T, p Params, i, delta int) Params {
	t.Helper()
	f := reflect.ValueOf(&p).Elem().Field(i)
	switch f.Kind() {
	case reflect.Int:
		f.SetInt(f.Int() + int64(delta))
	case reflect.Float64:
		f.SetFloat(f.Float() * 0.7)
	default:
		t.Fatalf("Params.%s: no perturbation for kind %s", reflect.TypeOf(p).Field(i).Name, f.Kind())
	}
	return p
}

// TestGeneratorKeyClassifiesEveryField: perturbing a reward-only field
// keeps the key and restamps a graph whose rates and clock delays are
// bit-identical to the unperturbed one; perturbing any other field
// changes the key. The memoized experiment solves rely on both halves.
func TestGeneratorKeyClassifiesEveryField(t *testing.T) {
	typ := reflect.TypeOf(Params{})
	cache := NewModelCache()
	bases := []struct {
		name  string
		p     Params
		build func(Params) (*Model, error)
	}{
		{"4v", DefaultFourVersion(), cache.BuildNoRejuvenation},
		{"6v", DefaultSixVersion(), cache.BuildWithRejuvenation},
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		switch {
		case rewardOnlyFields[name] && generatorFields[name]:
			t.Fatalf("Params.%s is classified both reward-only and generator", name)
		case generatorFields[name]:
			for _, b := range bases {
				q := perturbField(t, b.p, i, +1)
				if q.GeneratorKey() == b.p.GeneratorKey() {
					t.Errorf("%s: perturbing generator field %s left the key unchanged", b.name, name)
				}
			}
		case rewardOnlyFields[name]:
			for _, b := range bases {
				q := perturbField(t, b.p, i, -1)
				if q.GeneratorKey() != b.p.GeneratorKey() {
					t.Errorf("%s: perturbing reward-only field %s changed the key", b.name, name)
				}
				want, err := b.build(b.p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := b.build(q)
				if err != nil {
					t.Fatalf("%s with %s perturbed: %v", b.name, name, err)
				}
				sameGenerator(t, b.name+" "+name, got, want)
			}
		default:
			t.Errorf("Params.%s is not classified: add it to rewardOnlyFields (enters only the reliability function) "+
				"or generatorFields (shapes the net, its rates or delays)", name)
		}
	}
}

// sameGenerator checks that two models stamp bit-identical rate edges
// and clock delays.
func sameGenerator(t *testing.T, what string, got, want *Model) {
	t.Helper()
	ge, we := got.Graph.Exp, want.Graph.Exp
	if len(ge) != len(we) || len(got.Graph.Det) != len(want.Graph.Det) {
		t.Fatalf("%s: %d edges/%d states, want %d/%d", what, len(ge), len(got.Graph.Det), len(we), len(want.Graph.Det))
	}
	for k := range we {
		if math.Float64bits(ge[k].Rate) != math.Float64bits(we[k].Rate) {
			t.Errorf("%s: edge %d rate %v, want %v", what, k, ge[k].Rate, we[k].Rate)
		}
	}
	for s, wd := range want.Graph.Det {
		gd := got.Graph.Det[s]
		if (gd == nil) != (wd == nil) {
			t.Fatalf("%s: state %d clock presence differs", what, s)
		}
		if wd != nil && math.Float64bits(gd.Delay) != math.Float64bits(wd.Delay) {
			t.Errorf("%s: state %d delay %v, want %v", what, s, gd.Delay, wd.Delay)
		}
	}
}
