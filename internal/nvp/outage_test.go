package nvp

import (
	"errors"
	"math"
	"testing"

	"nvrel/internal/mrgp"
	"nvrel/internal/petri"
)

func TestMeanTimeToVoterOutageFourVersion(t *testing.T) {
	m, err := BuildNoRejuvenation(DefaultFourVersion())
	if err != nil {
		t.Fatal(err)
	}
	mtto, err := m.MeanTimeToVoterOutage()
	if err != nil {
		t.Fatalf("MeanTimeToVoterOutage: %v", err)
	}
	// Golden value from the exact first-passage solve; the scale is set by
	// how unlikely a second failure is during a 3 s repair.
	if mtto < 3.2e6 || mtto > 3.5e6 {
		t.Errorf("MTTO = %.0f s, want ~3.34e6", mtto)
	}
}

func TestMeanTimeToVoterOutageScalesWithRepair(t *testing.T) {
	// Faster repair shrinks the window for a concurrent second failure, so
	// the outage time grows roughly inversely with the repair time.
	slow := DefaultFourVersion()
	slow.MeanTimeToRepair = 30
	mSlow, err := BuildNoRejuvenation(slow)
	if err != nil {
		t.Fatal(err)
	}
	slowT, err := mSlow.MeanTimeToVoterOutage()
	if err != nil {
		t.Fatal(err)
	}
	fast := DefaultFourVersion()
	fast.MeanTimeToRepair = 0.3
	mFast, err := BuildNoRejuvenation(fast)
	if err != nil {
		t.Fatal(err)
	}
	fastT, err := mFast.MeanTimeToVoterOutage()
	if err != nil {
		t.Fatal(err)
	}
	if fastT < 20*slowT {
		t.Errorf("fast repair MTTO %.3g should dwarf slow repair %.3g", fastT, slowT)
	}
}

func TestMeanTimeToVoterOutageClockedModel(t *testing.T) {
	m, err := BuildWithRejuvenation(DefaultSixVersion())
	if err != nil {
		t.Fatal(err)
	}
	mtto, err := m.MeanTimeToVoterOutage()
	if err != nil {
		t.Fatalf("MeanTimeToVoterOutage: %v", err)
	}
	// Golden value from the MRGP first-passage solve (~31,789 days).
	const want = 2.746570687e9
	if rel := math.Abs(mtto-want) / want; rel > 1e-6 {
		t.Errorf("MTTO = %.10g s, want %.10g (rel err %.2g)", mtto, want, rel)
	}

	wave := DefaultSixVersion()
	wave.Clock = ClockWaitsForWave
	mw, err := BuildWithRejuvenation(wave)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mw.MeanTimeToVoterOutage(); !errors.Is(err, mrgp.ErrClockNotAlwaysEnabled) {
		t.Errorf("waits-for-wave err = %v, want mrgp.ErrClockNotAlwaysEnabled", err)
	}
}

// TestOutageTargetMatchesScheme checks the absorbing set marking by
// marking against the predicate the simulator uses: Scheme.Outage of the
// failed plus rejuvenating modules.
func TestOutageTargetMatchesScheme(t *testing.T) {
	for _, n := range []int{6, 8} {
		p := DefaultSixVersion()
		p.N = n
		m, err := BuildWithRejuvenation(p)
		if err != nil {
			t.Fatal(err)
		}
		places := make(map[string]int)
		for i := 0; i < m.Net.NumPlaces(); i++ {
			places[m.Net.PlaceName(petri.PlaceRef(i))] = i
		}
		pmf, pmr := places["Pmf"], places["Pmr"]
		target, err := m.outageTarget()
		if err != nil {
			t.Fatal(err)
		}
		scheme := p.Scheme()
		rejuvenatingOutage := false
		for s, mk := range m.Graph.Markings {
			want := scheme.Outage(mk[pmf] + mk[pmr])
			if target[s] != want {
				t.Errorf("N=%d %s: target %v, want %v", n, m.Net.FormatMarking(mk), target[s], want)
			}
			if want && !scheme.Outage(mk[pmf]) {
				rejuvenatingOutage = true
			}
		}
		if !rejuvenatingOutage {
			t.Errorf("N=%d: no marking where a rejuvenating module tips the voter into outage", n)
		}
	}
}
